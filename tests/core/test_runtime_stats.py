"""Runtime introspection (stats snapshot) tests."""

import pytest

from repro.core import QosPolicy, Session
from repro.core.metrics import runtime_samples
from repro.core.runtime import InsaneDeployment, build_stack
from repro.hw import Testbed


def test_stats_snapshot_structure_and_values():
    bed = Testbed.local(seed=0)
    sim = bed.sim
    deployment = InsaneDeployment(bed)
    tx = Session(deployment.runtime(0), "tx-app")
    rx = Session(deployment.runtime(1), "rx-app")
    tx_stream = tx.create_stream(QosPolicy.fast(), name="stats")
    rx_stream = rx.create_stream(QosPolicy.fast(), name="stats")
    source = tx.create_source(tx_stream, channel=1)
    rx.create_sink(rx_stream, channel=1, callback=lambda d: None)

    def producer():
        for _ in range(10):
            buffer = yield from tx.get_buffer_wait(source, 64)
            yield from tx.emit_data(source, buffer, length=64)

    sim.process(producer())
    sim.run()

    tx_stats = deployment.runtime(0).stats()
    assert tx_stats["host"] == "host0"
    assert tx_stats["profile"] == "local"
    assert "tx-app" in tx_stats["sessions"]
    assert tx_stats["memory"]["in_use"] == 0
    assert tx_stats["memory"]["allocations"] >= 10
    dpdk = tx_stats["bindings"]["dpdk"]
    assert dpdk["tx_packets"] == 10
    assert dpdk["tx_rings"]["tx-app"]["enqueued"] == 10
    assert dpdk["polling_threads"] == 1

    rx_stats = deployment.runtime(1).stats()
    assert rx_stats["bindings"]["dpdk"]["rx_packets"] == 10
    assert rx_stats["sink_rings"] == 1
    assert rx_stats["warnings"] == []


def test_stats_reports_fallback_warnings():
    from repro.hw import LOCAL_TESTBED

    bed = Testbed(LOCAL_TESTBED.replace(dpdk_capable=False, xdp_capable=False), seed=1)
    deployment = InsaneDeployment(bed)
    session = Session(deployment.runtime(0), "app")
    session.create_stream(QosPolicy.fast(), name="warned")
    stats = deployment.runtime(0).stats()
    assert len(stats["warnings"]) == 1


def test_stats_scheduler_backlog_counts_tsn():
    bed = Testbed.local(seed=2)
    deployment = InsaneDeployment(bed)
    session = Session(deployment.runtime(0), "app")
    stream = session.create_stream(QosPolicy.fast(time_sensitive=True), name="ts")
    stats = deployment.runtime(0).stats()
    assert stats["bindings"]["dpdk"]["scheduler_backlog"] == 0


@pytest.mark.parametrize("datapath", ["udp", "xdp", "dpdk", "rdma"])
def test_receiving_binding_counts_every_drained_packet(datapath):
    """The runtime drains XDP, DPDK and RDMA queues itself, so the count
    is the binding's own, not the plugin's RX chain's."""
    bed, deployment = build_stack(datapath, seed=5)
    tx = Session(deployment.runtime(0), "tx-app")
    rx = Session(deployment.runtime(1), "rx-app")
    tx_stream = tx.create_stream(QosPolicy.fast(), name="count")
    rx_stream = rx.create_stream(QosPolicy.fast(), name="count")
    source = tx.create_source(tx_stream, channel=1)
    delivered = []
    rx.create_sink(rx_stream, channel=1, callback=delivered.append)

    def producer():
        for _ in range(50):
            buffer = yield from tx.get_buffer_wait(source, 64)
            yield from tx.emit_data(source, buffer, length=64)

    bed.sim.process(producer())
    bed.sim.run()
    assert tx_stream.datapath == datapath
    assert len(delivered) == 50
    receiver = deployment.runtime(1)
    assert receiver.stats()["bindings"][datapath]["rx_packets"] == 50
    exported = {
        labels["datapath"]: value
        for family, labels, value in runtime_samples(receiver)
        if family == "binding_rx_packets_total"
    }
    assert exported[datapath] == 50
