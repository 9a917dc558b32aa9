"""Network Acceleration as a Service: orchestrating containers (paper §8).

A four-node edge cloud, heterogeneous on purpose: two accelerated nodes,
one RDMA rack, one plain VM host.  An orchestrator places containerized
services by their QoS needs, traffic flows, then a node is drained for
maintenance and its containers live-migrate — INSANE re-binds their
streams to whatever the destination offers.

Run with::

    python examples/edge_orchestration.py
"""

from repro.cloud.container import Container, ContainerSpec
from repro.cloud.orchestrator import EdgeOrchestrator
from repro.core import QosPolicy, Session
from repro.core.runtime import InsaneDeployment
from repro.hw import LOCAL_TESTBED, Testbed
from repro.simnet import Timeout


def make_edge():
    bed = Testbed(LOCAL_TESTBED, hosts=4, seed=13)
    deployment = InsaneDeployment(bed)
    # node3 is a commodity VM: no acceleration at all
    plain = LOCAL_TESTBED.replace(dpdk_capable=False, xdp_capable=False)
    bed.hosts[3].profile = plain
    deployment.runtimes["host3"].profile = plain
    # node0 is the RDMA rack
    rdma = LOCAL_TESTBED.replace(rdma_nic=True)
    bed.hosts[0].profile = rdma
    deployment.runtimes["host0"].profile = rdma
    return bed, deployment


def analytics_entrypoint(container, session, stream):
    """Consumes the sensor feed wherever the container happens to run."""
    container.samples = getattr(container, "samples", 0)

    def count(delivery):
        container.samples += 1

    session.create_sink(stream, channel=1, callback=count)
    return None


def main():
    bed, deployment = make_edge()
    sim = bed.sim
    orchestrator = EdgeOrchestrator(deployment)

    fast_spec = ContainerSpec(
        "analytics", analytics_entrypoint,
        policy=QosPolicy.fast(), stream_name="sensors",
        requires_acceleration=True, slot_quota=256,
    )
    best_effort_spec = ContainerSpec(
        "dashboard", analytics_entrypoint,
        policy=QosPolicy.slow(), stream_name="sensors",
    )

    analytics = Container(fast_spec)
    dashboards = [Container(best_effort_spec) for _ in range(2)]
    orchestrator.deploy(analytics)
    for dashboard in dashboards:
        orchestrator.deploy(dashboard)

    print("initial placements:")
    for node, names in sorted(orchestrator.stats().items()):
        print("  %-6s %s" % (node, names or "-"))
    print("analytics bound to: %s on %s"
          % (analytics.datapath, analytics.node.host.name))

    producer = Session(deployment.runtimes["host1"], "sensor-gw")
    stream = producer.create_stream(QosPolicy.fast(), name="sensors")
    source = producer.create_source(stream, channel=1)

    def publish(count):
        for _ in range(count):
            buffer = yield from producer.get_buffer_wait(source, 128)
            yield from producer.emit_data(source, buffer, length=128)
            yield Timeout(20_000)

    def scenario():
        yield from publish(40)
        # drain the analytics node for maintenance
        victim = analytics.node
        target = next(
            runtime for runtime in orchestrator.nodes()
            if runtime is not victim and orchestrator.accelerated(runtime)
        )
        downtime = orchestrator.migrate(analytics, target)
        print("\nmaintenance: migrated %s -> %s (downtime %.1f us, now on %s)"
              % (analytics.container_id, target.host.name, downtime / 1e3,
                 analytics.datapath))
        yield from publish(40)

    sim.process(scenario())
    sim.run()

    print("\nafter migration:")
    for node, names in sorted(orchestrator.stats().items()):
        print("  %-6s %s" % (node, names or "-"))
    print("analytics samples consumed : %d / 80 published" % analytics.samples)
    for index, dashboard in enumerate(dashboards):
        print("dashboard%d samples        : %d" % (index, dashboard.samples))


if __name__ == "__main__":
    main()
