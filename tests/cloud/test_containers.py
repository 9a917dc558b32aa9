"""Container and orchestrator tests (paper §8, Cloud integration)."""

import pytest

from repro.cloud.container import Container, ContainerSpec, ContainerState
from repro.cloud.orchestrator import EdgeOrchestrator, PlacementError
from repro.core import QosPolicy
from repro.core.errors import PoolExhaustedError
from repro.core.runtime import InsaneDeployment
from repro.hw import LOCAL_TESTBED, Testbed
from repro.simnet import Timeout


def idle_entrypoint(container, session, stream):
    def body():
        while True:
            yield Timeout(1_000_000)

    return body()


def make_deployment(profiles=None, seed=0):
    """A heterogeneous 3-node edge: node0/node1 accelerated, node2 not."""
    bed = Testbed(LOCAL_TESTBED, hosts=3, seed=seed)
    deployment = InsaneDeployment(bed)
    if profiles == "hetero":
        # strip acceleration from node2 by replacing its profile
        plain = LOCAL_TESTBED.replace(dpdk_capable=False, xdp_capable=False)
        bed.hosts[2].profile = plain
        deployment.runtimes["host2"].profile = plain
    return bed, deployment


class TestContainerLifecycle:
    def test_start_stop_cycle(self):
        bed, deployment = make_deployment()
        container = Container(ContainerSpec("svc", idle_entrypoint))
        container.start(deployment.runtime(0))
        assert container.state is ContainerState.RUNNING
        assert container.datapath == "dpdk"
        container.stop()
        bed.sim.run()
        assert container.state is ContainerState.STOPPED
        assert container.datapath is None

    def test_double_start_rejected(self):
        bed, deployment = make_deployment()
        container = Container(ContainerSpec("svc", idle_entrypoint))
        container.start(deployment.runtime(0))
        with pytest.raises(RuntimeError):
            container.start(deployment.runtime(1))

    def test_stop_reclaims_leaked_slots(self):
        bed, deployment = make_deployment()

        def leaky(container, session, stream):
            source = session.create_source(stream, channel=1)
            for _ in range(4):
                session.get_buffer(source, 64)
            return None

        container = Container(ContainerSpec("leaky", leaky))
        container.start(deployment.runtime(0))
        runtime = deployment.runtime(0)
        assert runtime.memory.pool.in_use == 4
        leaked = container.stop()
        assert leaked == 4
        assert runtime.memory.pool.in_use == 0

    def test_slot_quota_enforced(self):
        bed, deployment = make_deployment()

        def greedy(container, session, stream):
            source = session.create_source(stream, channel=1)
            container.grabbed = []
            try:
                for _ in range(10):
                    container.grabbed.append(session.get_buffer(source, 64))
            except PoolExhaustedError:
                container.quota_hit = True
            return None

        container = Container(ContainerSpec("greedy", greedy, slot_quota=3))
        container.start(deployment.runtime(0))
        assert getattr(container, "quota_hit", False)
        assert len(container.grabbed) == 3


class TestPlacement:
    def test_least_loaded_placement(self):
        bed, deployment = make_deployment()
        orchestrator = EdgeOrchestrator(deployment)
        placed = [
            orchestrator.deploy(Container(ContainerSpec("svc", idle_entrypoint)))
            for _ in range(6)
        ]
        names = sorted(node.host.name for node in placed)
        assert names == ["host0", "host0", "host1", "host1", "host2", "host2"]

    def test_acceleration_requirement_constrains_placement(self):
        bed, deployment = make_deployment(profiles="hetero")
        orchestrator = EdgeOrchestrator(deployment)
        spec = ContainerSpec("fastsvc", idle_entrypoint, requires_acceleration=True)
        for _ in range(4):
            node = orchestrator.deploy(Container(spec))
            assert node.host.name != "host2"

    def test_no_candidate_raises(self):
        bed, deployment = make_deployment(profiles="hetero")
        orchestrator = EdgeOrchestrator(deployment, capacity_per_node=1)
        spec = ContainerSpec("fastsvc", idle_entrypoint, requires_acceleration=True)
        orchestrator.deploy(Container(spec))
        orchestrator.deploy(Container(spec))
        with pytest.raises(PlacementError):
            orchestrator.deploy(Container(spec))

    def test_explicit_bad_placement_rejected(self):
        bed, deployment = make_deployment(profiles="hetero")
        orchestrator = EdgeOrchestrator(deployment)
        spec = ContainerSpec("fastsvc", idle_entrypoint, requires_acceleration=True)
        with pytest.raises(PlacementError):
            orchestrator.deploy(Container(spec), node=deployment.runtimes["host2"])

    def test_stats_reflect_placements(self):
        bed, deployment = make_deployment()
        orchestrator = EdgeOrchestrator(deployment)
        container = Container(ContainerSpec("svc", idle_entrypoint))
        orchestrator.deploy(container, node=deployment.runtime(1))
        stats = orchestrator.stats()
        assert container.container_id in stats["host1"]
        orchestrator.stop(container)
        assert orchestrator.stats()["host1"] == []


class TestMigration:
    def test_migration_rebinds_datapath(self):
        bed, deployment = make_deployment(profiles="hetero")
        orchestrator = EdgeOrchestrator(deployment)
        container = Container(ContainerSpec("svc", idle_entrypoint))
        orchestrator.deploy(container, node=deployment.runtime(0))
        assert container.datapath == "dpdk"
        orchestrator.migrate(container, deployment.runtimes["host2"])
        assert container.node.host.name == "host2"
        assert container.datapath == "udp"  # transparently re-bound
        assert container.incarnations == 2

    def test_migration_requirement_check(self):
        bed, deployment = make_deployment(profiles="hetero")
        orchestrator = EdgeOrchestrator(deployment)
        spec = ContainerSpec("fastsvc", idle_entrypoint, requires_acceleration=True)
        container = Container(spec)
        orchestrator.deploy(container, node=deployment.runtime(0))
        with pytest.raises(PlacementError):
            orchestrator.migrate(container, deployment.runtimes["host2"])
        assert container.node.host.name == "host0"

    def test_traffic_follows_migrated_consumer(self):
        """A producer keeps publishing while its consumer container
        migrates; delivery resumes at the new location."""
        bed, deployment = make_deployment()
        sim = bed.sim
        orchestrator = EdgeOrchestrator(deployment)
        received = []

        def consumer_entrypoint(container, session, stream):
            session.create_sink(
                stream, channel=5,
                callback=lambda d: received.append(container.node.host.name),
            )
            return None

        spec = ContainerSpec("consumer", consumer_entrypoint, stream_name="mig")
        consumer = Container(spec)
        orchestrator.deploy(consumer, node=deployment.runtime(1))

        from repro.core import Session

        producer = Session(deployment.runtime(0), "producer")
        stream = producer.create_stream(QosPolicy.fast(), name="mig")
        source = producer.create_source(stream, channel=5)

        def produce(count):
            for _ in range(count):
                buffer = yield from producer.get_buffer_wait(source, 16)
                yield from producer.emit_data(source, buffer, length=16)
                yield Timeout(10_000)

        def scenario():
            yield from produce(5)
            yield Timeout(100_000)
            orchestrator.migrate(consumer, deployment.runtimes["host2"])
            yield from produce(5)

        sim.process(scenario())
        sim.run()
        assert received.count("host1") == 5
        assert received.count("host2") == 5
