"""The emit contract: the token on an application's emit ring names its
source, its trace is tracing only, and the source's outcome byte says
whether routing will report SENT or DEGRADED."""

from repro.core import EmitOutcome, QosPolicy, Session
from repro.core.config import RuntimeConfig
from repro.core.runtime import PENDING_DEGRADED, InsaneDeployment
from repro.hw import Testbed
from repro.obs import LifecycleTracer
from tests.core.helpers import routed_tokens


def stack(config=None):
    """A publisher on host 0 and a subscriber on host 1, on stream "e"."""
    testbed = Testbed.local()
    deployment = InsaneDeployment(testbed, config=config)
    tx = Session(deployment.runtime(0), "tx")
    rx = Session(deployment.runtime(1), "rx")
    stream = tx.create_stream(QosPolicy.fast(), "e")
    source = tx.create_source(stream, 1)
    rx.create_sink(rx.create_stream(QosPolicy.fast(), "e"), 1)
    return testbed.sim, deployment, tx, stream, source


def emit(sim, session, source, count=1):
    """Emit ``count`` messages; returns each emit's id and the outcome it
    read right after ``emit_data`` returned (before routing)."""
    emitted = []

    def producer():
        for _ in range(count):
            buffer = session.get_buffer(source, 8)
            emit_id = yield from session.emit_data(source, buffer, length=8)
            emitted.append((emit_id, session.check_emit_outcome(source, emit_id)))

    sim.process(producer())
    sim.run()
    return emitted


class TestEmitToken:
    def test_names_its_source_and_outcome_index(self):
        sim, _deployment, tx, stream, source = stack()
        routed = routed_tokens(stream.binding)
        emitted = emit(sim, tx, source, count=2)
        assert [token.source for token in routed] == [source, source]
        assert [token.emit_index for token in routed] == \
            [emit_id[2] for emit_id, _ in emitted]

    def test_untraced_emit_carries_no_trace(self):
        sim, _deployment, tx, stream, source = stack()
        routed = routed_tokens(stream.binding)
        emit(sim, tx, source, count=2)
        assert len(routed) == 2
        assert all(token.trace is None for token in routed)

    def test_traced_emit_carries_its_lifecycle_root(self):
        tracer = LifecycleTracer()
        sim, _deployment, tx, stream, source = stack(
            RuntimeConfig(tracer=tracer))
        routed = routed_tokens(stream.binding)
        emit(sim, tx, source)
        assert routed[0].trace is tracer.roots[0]


class TestDegradedStreamEmits:
    def test_reads_pending_before_routing_and_degraded_after(self):
        sim, deployment, tx, stream, source = stack()
        runtime = deployment.runtime(0)
        runtime.fail_datapath("dpdk", "injected")
        sim.run()  # the health monitor re-maps the stream
        assert stream.degraded and stream.datapath == "xdp"
        emitted = emit(sim, tx, source, count=2)
        assert [before for _id, before in emitted] == [EmitOutcome.PENDING] * 2
        assert [tx.check_emit_outcome(source, emit_id)
                for emit_id, _ in emitted] == [EmitOutcome.DEGRADED] * 2

    def test_both_pending_bytes_read_pending(self):
        sim, _deployment, tx, _stream, source = stack()
        (emit_id, _), = emit(sim, tx, source)
        for byte in (EmitOutcome.PENDING.as_int() & 0xFF, PENDING_DEGRADED):
            source._outcomes[emit_id[2]] = byte
            assert tx.check_emit_outcome(source, emit_id) is EmitOutcome.PENDING
