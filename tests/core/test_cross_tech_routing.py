"""Cross-technology routing on heterogeneous deployments.

A publisher must reach subscribers whose runtimes bound the channel to a
*different* datapath (e.g. fast publisher, slow subscriber; DPDK-only
publisher, RDMA subscriber).  The control plane carries each subscriber's
bound technology and the sender picks a mutually supported one, with the
always-on kernel listener as the universal fallback.
"""

import pytest

from repro.core import EmitOutcome, QosPolicy, Session
from repro.core.config import RuntimeConfig
from repro.core.runtime import InsaneDeployment
from repro.hw import LOCAL_TESTBED, Testbed
from repro.obs import LifecycleTracer


def heterogeneous_pair(tx_profile, rx_profile, seed=0):
    bed = Testbed(LOCAL_TESTBED, hosts=2, seed=seed)
    bed.hosts[0].profile = tx_profile
    bed.hosts[1].profile = rx_profile
    deployment = InsaneDeployment(bed)
    deployment.runtime(0).profile = tx_profile
    deployment.runtime(1).profile = rx_profile
    return bed, deployment


def run_flow(bed, deployment, tx_policy, rx_policy, messages=5):
    sim = bed.sim
    tx = Session(deployment.runtime(0), "tx")
    rx = Session(deployment.runtime(1), "rx")
    tx_stream = tx.create_stream(tx_policy, name="x")
    rx_stream = rx.create_stream(rx_policy, name="x")
    source = tx.create_source(tx_stream, channel=1)
    got = []
    rx.create_sink(rx_stream, channel=1, callback=lambda d: got.append(d.length))

    def producer():
        for _ in range(messages):
            buffer = yield from tx.get_buffer_wait(source, 64)
            yield from tx.emit_data(source, buffer, length=64)

    sim.process(producer())
    sim.run()
    return got, tx_stream, rx_stream


def test_fast_publisher_reaches_slow_subscriber():
    bed, deployment = heterogeneous_pair(LOCAL_TESTBED, LOCAL_TESTBED, seed=1)
    got, tx_stream, rx_stream = run_flow(
        bed, deployment, QosPolicy.fast(), QosPolicy.slow()
    )
    assert tx_stream.datapath == "dpdk"
    assert rx_stream.datapath == "udp"
    assert got == [64] * 5
    # the publisher routed through its kernel binding
    assert deployment.runtime(0).bindings["dpdk"].cross_tech_routes.value == 5


def test_slow_publisher_reaches_fast_subscriber():
    bed, deployment = heterogeneous_pair(LOCAL_TESTBED, LOCAL_TESTBED, seed=2)
    got, tx_stream, rx_stream = run_flow(
        bed, deployment, QosPolicy.slow(), QosPolicy.fast()
    )
    assert (tx_stream.datapath, rx_stream.datapath) == ("udp", "dpdk")
    assert got == [64] * 5


def test_dpdk_publisher_reaches_rdma_subscriber_via_kernel():
    """The publisher lacks RDMA hardware; the subscriber listens on RDMA
    only (plus the universal kernel listener)."""
    rdma_host = LOCAL_TESTBED.replace(rdma_nic=True)
    bed, deployment = heterogeneous_pair(LOCAL_TESTBED, rdma_host, seed=3)
    got, tx_stream, rx_stream = run_flow(
        bed, deployment, QosPolicy.fast(), QosPolicy.fast()
    )
    assert tx_stream.datapath == "dpdk"
    assert rx_stream.datapath == "rdma"
    assert got == [64] * 5


def test_rdma_publisher_downgrades_for_plain_subscriber():
    rdma_host = LOCAL_TESTBED.replace(rdma_nic=True)
    plain_host = LOCAL_TESTBED.replace(dpdk_capable=False, xdp_capable=False)
    bed, deployment = heterogeneous_pair(rdma_host, plain_host, seed=4)
    got, tx_stream, rx_stream = run_flow(
        bed, deployment, QosPolicy.fast(), QosPolicy.fast()
    )
    assert tx_stream.datapath == "rdma"
    assert rx_stream.datapath == "udp"  # subscriber fell back with warning
    assert got == [64] * 5


def test_same_tech_does_not_count_cross_routes():
    bed, deployment = heterogeneous_pair(LOCAL_TESTBED, LOCAL_TESTBED, seed=5)
    run_flow(bed, deployment, QosPolicy.fast(), QosPolicy.fast())
    assert deployment.runtime(0).bindings["dpdk"].cross_tech_routes.value == 0


def test_mixed_subscribers_each_reached_on_their_technology():
    """One publisher, one fast subscriber and one slow subscriber on
    different hosts: each receives via its own bound technology."""
    bed = Testbed(LOCAL_TESTBED, hosts=3, seed=6)
    deployment = InsaneDeployment(bed)
    sim = bed.sim
    tx = Session(deployment.runtime(0), "tx")
    fast_rx = Session(deployment.runtime(1), "fast-rx")
    slow_rx = Session(deployment.runtime(2), "slow-rx")
    tx_stream = tx.create_stream(QosPolicy.fast(), name="mix")
    fast_stream = fast_rx.create_stream(QosPolicy.fast(), name="mix")
    slow_stream = slow_rx.create_stream(QosPolicy.slow(), name="mix")
    source = tx.create_source(tx_stream, channel=1)
    got = {"fast": 0, "slow": 0}
    fast_rx.create_sink(fast_stream, channel=1,
                        callback=lambda d: got.__setitem__("fast", got["fast"] + 1))
    slow_rx.create_sink(slow_stream, channel=1,
                        callback=lambda d: got.__setitem__("slow", got["slow"] + 1))

    def producer():
        for _ in range(7):
            buffer = yield from tx.get_buffer_wait(source, 32)
            yield from tx.emit_data(source, buffer, length=32)

    sim.process(producer())
    sim.run()
    assert got == {"fast": 7, "slow": 7}
    # the slow subscriber's packets really crossed the kernel path
    kernel_rx = deployment.runtime(2).bindings["udp"]
    assert kernel_rx.no_sink_drops.value == 0


def test_copy_for_a_failed_kernel_binding_is_dropped_at_route_time():
    """A fast publisher reaches a slow subscriber through its kernel
    binding.  With that binding failed, each copy is dropped when it is
    routed, as the failure drops a queued copy, instead of waiting in the
    dead binding's queue for good."""
    tracer = LifecycleTracer()
    bed = Testbed(LOCAL_TESTBED, hosts=2, seed=1)
    deployment = InsaneDeployment(bed, RuntimeConfig(tracer=tracer))
    runtime = deployment.runtime(0)
    tx = Session(runtime, "tx")
    rx = Session(deployment.runtime(1), "rx")
    source = tx.create_source(tx.create_stream(QosPolicy.fast(), name="s"), 1)
    got = []
    rx.create_sink(rx.create_stream(QosPolicy.slow(), name="s"), 1,
                   callback=got.append)
    runtime.fail_datapath("udp", "injected")
    emit_ids = []

    def producer():
        for _ in range(3):
            buffer = tx.get_buffer(source, 64)
            emit_ids.append((yield from tx.emit_data(source, buffer,
                                                     length=64)))

    bed.sim.process(producer())
    bed.sim.run()
    assert [tx.check_emit_outcome(source, e) for e in emit_ids] \
        == [EmitOutcome.SENT] * 3
    assert got == []
    stats = runtime.stats()
    assert stats["memory"]["in_use"] == 0
    assert stats["bindings"]["udp"]["scheduler_backlog"] == 0
    assert stats["bindings"]["udp"]["sched_drops"] == 3
    assert [root.children[0].state for root in tracer.roots] \
        == ["dropped"] * 3
