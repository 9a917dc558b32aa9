"""QoS-aware failover: detection, re-mapping, degradation, stranding."""

import pytest

from repro.core import EmitOutcome, QosPolicy, Session
from repro.core.control import FAILOVER_DETECT_NS
from repro.core.errors import DatapathFailedError
from repro.core.runtime import InsaneDeployment
from repro.faults import FaultSchedule
from repro.hw import Testbed
from repro.simnet import Timeout

FAIL_AT = 500_000.0
INTERVAL = 25_000.0


def run_pubsub_with_failure(messages=30, fail_at=FAIL_AT, restore_at=None,
                            refail_at=None, seed=0):
    """Steady fast-path pub/sub traffic with an injected dpdk failure on the
    publisher host; returns everything the assertions need."""
    testbed = Testbed.local(seed=seed)
    sim = testbed.sim
    deployment = InsaneDeployment(testbed)
    runtime = deployment.runtime(0)

    pub = Session(runtime, "pub")
    sub = Session(deployment.runtime(1), "sub")
    pub_stream = pub.create_stream(QosPolicy.fast(), name="fo")
    sub_stream = sub.create_stream(QosPolicy.fast(), name="fo")
    source = pub.create_source(pub_stream, channel=1)
    sink = sub.create_sink(sub_stream, channel=1)

    emit_ids = []
    deliveries = []

    def producer():
        for _ in range(messages):
            buffer = yield from pub.get_buffer_wait(source, 64)
            emit_id = yield from pub.emit_data(source, buffer, length=64)
            emit_ids.append(emit_id)
            yield Timeout(INTERVAL)

    def consumer():
        while True:
            delivery = yield from sub.consume_data(sink)
            deliveries.append(sim.now)
            sub.release_buffer(sink, delivery)

    sim.process(producer(), name="pub")
    sim.process(consumer(), name="sub")
    sim.schedule(fail_at, lambda: runtime.fail_datapath("dpdk", "injected"))
    if restore_at is not None:
        sim.schedule(restore_at, lambda: runtime.restore_datapath("dpdk"))
    if refail_at is not None:
        sim.schedule(refail_at, lambda: runtime.fail_datapath("dpdk", "again"))
    sim.run()

    outcomes = [pub.check_emit_outcome(source, emit_id) for emit_id in emit_ids]
    return {
        "runtime": runtime,
        "pub": pub,
        "sub": sub,
        "stream": pub_stream,
        "sink": sink,
        "outcomes": outcomes,
        "deliveries": deliveries,
        "emitted": len(emit_ids),
    }


class TestFailover:
    def test_remaps_to_best_survivor(self):
        r = run_pubsub_with_failure()
        runtime, stream = r["runtime"], r["stream"]
        assert stream.datapath == "xdp"  # fast policy: dpdk -> xdp degradation
        assert stream.degraded
        assert not stream.failed
        assert runtime.failovers.value == 1
        assert len(runtime.health.events) == 1
        event = runtime.health.events[0]
        assert event.datapath == "dpdk"
        assert event.remapped == [("pub", "fo", "dpdk", "xdp")]
        assert event.stranded == []
        assert any("failed" in w for w in runtime.warnings)

    def test_detection_latency_matches_config(self):
        r = run_pubsub_with_failure()
        runtime = r["runtime"]
        event = runtime.health.events[0]
        assert event.failed_at == FAIL_AT
        assert event.detection_latency_ns == FAILOVER_DETECT_NS

    def test_traffic_survives_the_failure(self):
        r = run_pubsub_with_failure()
        # every message emitted is eventually delivered: parked tokens are
        # migrated off the dead binding's rings onto the fallback path
        assert len(r["deliveries"]) == r["emitted"]
        assert r["runtime"].health.events[0].migrated >= 1

    def test_outcomes_degrade_after_failover(self):
        r = run_pubsub_with_failure()
        outcomes = r["outcomes"]
        assert EmitOutcome.SENT in outcomes
        assert EmitOutcome.DEGRADED in outcomes
        # the enum still compares equal to the historical plain strings
        assert outcomes[0] == "sent"
        assert outcomes[-1] == "degraded"
        # sent before, degraded after — no interleaving
        first_degraded = outcomes.index(EmitOutcome.DEGRADED)
        assert all(o == EmitOutcome.SENT for o in outcomes[:first_degraded])
        assert all(o == EmitOutcome.DEGRADED for o in outcomes[first_degraded:])

    def test_restore_before_detection_is_noop(self):
        r = run_pubsub_with_failure(restore_at=FAIL_AT + 10_000.0)
        runtime, stream = r["runtime"], r["stream"]
        assert runtime.health.events == []
        assert runtime.failovers.value == 0
        assert stream.datapath == "dpdk"
        assert not stream.degraded
        assert len(r["deliveries"]) == r["emitted"]

    def test_refailure_is_a_new_epoch(self):
        r = run_pubsub_with_failure(
            restore_at=FAIL_AT + 100_000.0, refail_at=FAIL_AT + 200_000.0
        )
        runtime = r["runtime"]
        # first failure detected and remapped (pub stream -> xdp); the
        # restored-then-refailed dpdk binding fails again with no streams
        # left on it, producing a second (empty) failover event
        assert len(runtime.health.events) == 2
        assert runtime.failovers.value == 1
        assert r["stream"].datapath == "xdp"

    def test_failed_path_excluded_from_new_mappings(self):
        r = run_pubsub_with_failure()
        runtime = r["runtime"]
        assert "dpdk" not in runtime.available_datapaths()
        fresh = r["pub"].create_stream(QosPolicy.fast(), name="fresh")
        assert fresh.datapath == "xdp"

    def test_stats_expose_failure_state(self):
        r = run_pubsub_with_failure()
        stats = r["runtime"].stats()
        assert stats["failed_datapaths"] == ["dpdk"]
        assert stats["failovers"] == 1
        assert stats["failover_events"] == 1
        assert stats["bindings"]["dpdk"]["failed"] is True


class TestSinkRemap:
    def test_subscriber_side_failure_moves_subscription(self):
        testbed = Testbed.local(seed=0)
        sim = testbed.sim
        deployment = InsaneDeployment(testbed)
        sub_runtime = deployment.runtime(1)

        pub = Session(deployment.runtime(0), "pub")
        sub = Session(sub_runtime, "sub")
        pub_stream = pub.create_stream(QosPolicy.fast(), name="s")
        sub_stream = sub.create_stream(QosPolicy.fast(), name="s")
        source = pub.create_source(pub_stream, channel=1)
        sink = sub.create_sink(sub_stream, channel=1)
        assert sink.endpoint.datapath == "dpdk"

        deliveries = []

        def producer():
            for _ in range(20):
                buffer = yield from pub.get_buffer_wait(source, 64)
                yield from pub.emit_data(source, buffer, length=64)
                yield Timeout(INTERVAL)

        def consumer():
            while True:
                delivery = yield from sub.consume_data(sink)
                deliveries.append(sim.now)
                sub.release_buffer(sink, delivery)

        sim.process(producer(), name="pub")
        sim.process(consumer(), name="sub")
        sim.schedule(200_000.0, lambda: sub_runtime.fail_datapath("dpdk", "rx dead"))
        sim.run()

        # the subscription's advertised technology moved to the fallback;
        # the delivery ring itself is datapath-independent, so traffic
        # resumes once the publisher re-picks its egress per subscriber
        # tech.  In-flight frames during the detection window are lost —
        # a receiver-side driver crash drops its queues (best-effort).
        assert sink.endpoint.datapath == "xdp"
        detect_at = 200_000.0 + FAILOVER_DETECT_NS
        after_remap = [t for t in deliveries if t > detect_at]
        assert len(after_remap) >= 10  # traffic flows again post-remap
        assert len(deliveries) >= 18   # at most the detection window is lost


class TestParkedTokens:
    """Tokens parked on a failed binding's emit rings when the health
    monitor re-maps their streams."""

    @staticmethod
    def pubsub(pub_policy, sub_policy):
        testbed = Testbed.local(seed=0)
        deployment = InsaneDeployment(testbed)
        pub = Session(deployment.runtime(0), "pub")
        sub = Session(deployment.runtime(1), "sub")
        sink = sub.create_sink(sub.create_stream(sub_policy, name="s"), 1)
        return testbed.sim, deployment.runtime(0), pub, sink

    @staticmethod
    def emit(sim, pub, source, count, at=0.0):
        emit_ids = []

        def producer():
            yield Timeout(at)
            for _ in range(count):
                buffer = pub.get_buffer(source, 64)
                emit_ids.append((yield from pub.emit_data(source, buffer,
                                                          length=64)))

        sim.process(producer(), name="pub")
        return emit_ids

    def test_migrated_tokens_read_degraded(self):
        sim, runtime, pub, sink = self.pubsub(QosPolicy.fast(), QosPolicy.fast())
        stream = pub.create_stream(QosPolicy.fast(), name="s")
        source = pub.create_source(stream, 1)
        runtime.fail_datapath("dpdk", "injected")
        emit_ids = self.emit(sim, pub, source, 3)
        sim.run(until=FAILOVER_DETECT_NS / 2)
        assert len(runtime.bindings["dpdk"].tx_rings["pub"]) == 3
        assert [pub.check_emit_outcome(source, e) for e in emit_ids] \
            == [EmitOutcome.PENDING] * 3
        sim.run()
        assert runtime.health.events[0].migrated == 3
        assert [pub.check_emit_outcome(source, e) for e in emit_ids] \
            == [EmitOutcome.DEGRADED] * 3
        assert len(sink.ring) == 3

    def test_parked_tokens_follow_their_own_stream(self):
        """Two streams of one session share a name: when the slow one is
        stranded, its parked tokens fail with it instead of migrating
        onto the fast one's binding."""
        sim, runtime, pub, sink = self.pubsub(QosPolicy.slow(), QosPolicy.slow())
        fast = pub.create_stream(QosPolicy.fast(), name="s")
        slow = pub.create_stream(QosPolicy.slow(), name="s")
        source = pub.create_source(slow, 1)
        runtime.fail_datapath("udp", "injected")
        emit_ids = self.emit(sim, pub, source, 3)
        sim.run()
        assert slow.failed and not fast.failed
        event = runtime.health.events[0]
        assert event.stranded == [("pub", "s")] and event.migrated == 0
        assert [pub.check_emit_outcome(source, e) for e in emit_ids] \
            == [EmitOutcome.FAILED] * 3
        assert runtime.memory.pool.in_use == 0
        assert len(sink.ring) == 0

    def test_emit_in_flight_at_the_remap_keeps_its_outcome(self):
        """An emit still crossing into the runtime when the health monitor
        re-maps its stream enters on the stream's new binding: it reads
        DEGRADED, is delivered once and frees its slot, with no restore
        of the failed binding."""
        sim, runtime, pub, sink = self.pubsub(QosPolicy.fast(), QosPolicy.fast())
        stream = pub.create_stream(QosPolicy.fast(), name="s")
        source = pub.create_source(stream, 1)
        runtime.fail_datapath("dpdk", "injected")
        emit_ids = self.emit(sim, pub, source, 1, at=FAILOVER_DETECT_NS - 1)
        sim.run()
        assert stream.degraded and runtime.health.events[0].migrated == 0
        assert [pub.check_emit_outcome(source, e) for e in emit_ids] \
            == [EmitOutcome.DEGRADED]
        assert not any(runtime.bindings["dpdk"].tx_rings.values())
        assert len(sink.ring) == 1
        assert runtime.memory.pool.in_use == 0

    def test_emit_in_flight_when_its_stream_is_stranded_fails(self):
        """The same emit, when the re-map finds no surviving datapath,
        fails as a parked token does instead of stranding on the dead
        ring."""
        sim, runtime, pub, sink = self.pubsub(QosPolicy.fast(), QosPolicy.fast())
        stream = pub.create_stream(QosPolicy.fast(), name="s")
        source = pub.create_source(stream, 1)
        for name in ("dpdk", "xdp", "udp"):
            runtime.ensure_binding(name)
            runtime.fail_datapath(name, "injected")
        emit_ids = self.emit(sim, pub, source, 1, at=FAILOVER_DETECT_NS - 1)
        sim.run()
        assert stream.failed
        assert [pub.check_emit_outcome(source, e) for e in emit_ids] \
            == [EmitOutcome.FAILED]
        assert not any(runtime.bindings["dpdk"].tx_rings.values())
        assert runtime.memory.pool.in_use == 0

    def test_producer_blocked_on_the_full_dead_ring_is_migrated_too(self):
        """400 emits into a failed binding's 256-slot ring: the re-map's
        first take admits the blocked producer's token, which the
        migration takes as well instead of leaving it on the dead ring.
        The fallback ring is full by then, so that one emit fails."""
        sim, runtime, pub, sink = self.pubsub(QosPolicy.fast(), QosPolicy.fast())
        stream = pub.create_stream(QosPolicy.fast(), name="s")
        source = pub.create_source(stream, 1)
        runtime.fail_datapath("dpdk", "injected")
        emit_ids = self.emit(sim, pub, source, 400)
        sim.run()
        outcomes = [pub.check_emit_outcome(source, e) for e in emit_ids]
        assert EmitOutcome.PENDING not in outcomes
        assert outcomes.count(EmitOutcome.FAILED) == 1
        assert outcomes.count(EmitOutcome.DEGRADED) == 399
        assert not any(runtime.bindings["dpdk"].tx_rings.values())
        assert runtime.memory.pool.in_use == 0


class TestStranding:
    def test_stream_with_no_survivors_is_stranded(self):
        testbed = Testbed.local(seed=0)
        sim = testbed.sim
        deployment = InsaneDeployment(testbed)
        runtime = deployment.runtime(0)

        pub = Session(runtime, "pub")
        stream = pub.create_stream(QosPolicy.fast(), name="s")
        source = pub.create_source(stream, channel=1)
        # instantiate every binding so all of them can be failed
        for name in sorted(runtime.available_datapaths()):
            runtime.ensure_binding(name)

        errors = []

        def fail_everything():
            for name in sorted(runtime.bindings):
                if not runtime.bindings[name].failed:
                    runtime.fail_datapath(name, "total outage")

        def producer():
            buffer = yield from pub.get_buffer_wait(source, 64)
            yield from pub.emit_data(source, buffer, length=64)
            yield Timeout(200_000.0)  # past failure + detection
            try:
                buffer = yield from pub.get_buffer_wait(source, 64)
                yield from pub.emit_data(source, buffer, length=64)
            except DatapathFailedError as exc:
                errors.append(exc)

        sim.process(producer(), name="pub")
        sim.schedule(50_000.0, fail_everything)
        sim.run()

        assert stream.failed
        assert len(errors) == 1
        assert errors[0].code == 40
        events = {e.datapath: e for e in runtime.health.events}
        assert ("pub", "s") in events["dpdk"].stranded
        assert runtime.failovers.value == 0

    def test_injected_total_outage_via_schedule(self):
        testbed = Testbed.local(seed=0)
        deployment = InsaneDeployment(testbed)
        runtime = deployment.runtime(0)
        pub = Session(runtime, "pub")
        stream = pub.create_stream(QosPolicy.fast(), name="s")
        for name in sorted(runtime.available_datapaths()):
            runtime.ensure_binding(name)
        schedule = FaultSchedule()
        for name in sorted(runtime.bindings):
            schedule.datapath_failure(at=10_000.0, host=0, datapath=name)
        schedule.apply(testbed, deployment)
        testbed.sim.run()
        assert stream.failed
        with pytest.raises(DatapathFailedError):
            next(iter_emit(pub, pub.create_source(stream, channel=2)))


def iter_emit(session, source):
    """Drive one emit_data generator far enough to hit its validation."""
    buffer = session.get_buffer(source, 64)
    return session.emit_data(source, buffer, length=64)
