"""The redesigned API surface: context managers, typed QoS construction,
the error-code space, and the EmitOutcome enum."""

import pytest

from repro.core import (
    ERROR_CODES,
    BufferLifecycleError,
    DatapathFailedError,
    EmitOutcome,
    FaultInjectionError,
    InsaneError,
    NoDatapathError,
    PoolExhaustedError,
    QosPolicy,
    QosValidationError,
    Session,
    SessionError,
    TransferError,
    UtcpError,
)
from repro.core.qos import Acceleration, ResourceBudget, TimeSensitivity
from repro.core.runtime import InsaneDeployment, InsaneRuntime
from repro.hw import Testbed


def make_runtime(seed=0):
    testbed = Testbed.local(seed=seed)
    return testbed, InsaneDeployment(testbed).runtime(0)


class TestContextManagers:
    def test_session_with_block_closes(self):
        _, runtime = make_runtime()
        with Session(runtime, "app") as session:
            stream = session.create_stream(QosPolicy.fast(), name="s")
            session.create_source(stream, channel=1)
            assert not session.closed
        assert session.closed
        assert stream.closed

    def test_session_close_is_idempotent(self):
        _, runtime = make_runtime()
        session = Session(runtime, "app")
        session.close()
        assert session.close() == 0  # second close: no-op, nothing reclaimed

    def test_endpoint_with_blocks(self):
        _, runtime = make_runtime()
        with Session(runtime, "app") as session:
            with session.create_stream(QosPolicy.fast(), name="s") as stream:
                with session.create_source(stream, channel=1) as source, \
                        session.create_sink(stream, channel=2) as sink:
                    assert not source.closed and not sink.closed
                assert source.closed and sink.closed
                assert stream.sources == [] and stream.sinks == []
            assert stream.closed
        # closing everything twice is harmless
        stream.close()
        source.close()
        sink.close()

    def test_runtime_and_deployment_with_blocks(self):
        testbed = Testbed.local(seed=0)
        with InsaneDeployment(testbed) as deployment:
            runtime = deployment.runtime(0)
            with Session(runtime, "app") as session:
                session.create_stream(QosPolicy.fast(), name="s")
        # deployment exit shut every runtime down, idempotently
        deployment.shutdown()
        testbed2 = Testbed.local(seed=1)
        with InsaneRuntime(testbed2.hosts[0]) as runtime2:
            pass
        runtime2.shutdown()  # second shutdown: no-op

    def test_closed_session_rejects_use(self):
        _, runtime = make_runtime()
        session = Session(runtime, "app")
        session.close()
        with pytest.raises(SessionError):
            session.create_stream(QosPolicy.fast(), name="s")


class TestQosConstruction:
    def test_from_kwargs_matches_presets(self):
        assert QosPolicy.from_kwargs(acceleration="fast") == QosPolicy.fast()
        assert QosPolicy.from_kwargs(acceleration="slow") == QosPolicy.slow()
        assert (
            QosPolicy.from_kwargs(acceleration="fast", constrained=True)
            == QosPolicy.fast(constrained=True)
        )

    def test_from_kwargs_accepts_enums(self):
        policy = QosPolicy.from_kwargs(
            acceleration=Acceleration.ACCELERATED,
            resources=ResourceBudget.UNCONSTRAINED,
            time_sensitivity=TimeSensitivity.TIME_SENSITIVE,
        )
        assert policy.acceleration is Acceleration.ACCELERATED
        assert policy.time_sensitivity is TimeSensitivity.TIME_SENSITIVE

    def test_unknown_option_raises_typed(self):
        with pytest.raises(QosValidationError) as excinfo:
            QosPolicy.from_kwargs(speed="ludicrous")
        assert "speed" in str(excinfo.value)
        assert isinstance(excinfo.value, ValueError)  # generic handlers work

    def test_invalid_value_raises_typed(self):
        with pytest.raises(QosValidationError):
            QosPolicy.from_kwargs(acceleration="warp")


class TestErrorSurface:
    def test_every_error_is_an_insane_error_with_a_code(self):
        classes = [
            SessionError, PoolExhaustedError, BufferLifecycleError,
            NoDatapathError, QosValidationError, DatapathFailedError,
            FaultInjectionError, TransferError, UtcpError,
        ]
        for cls in classes:
            assert issubclass(cls, InsaneError)
            assert isinstance(cls.code, int) and cls.code > 0
            assert ERROR_CODES[cls.__name__] == cls.code

    def test_codes_are_unique(self):
        codes = list(ERROR_CODES.values())
        assert len(codes) == len(set(codes))
        assert ERROR_CODES["INSANE_OK"] == 0

    def test_stdlib_compat_inheritance(self):
        # generic handlers written against stdlib exceptions keep working
        assert issubclass(QosValidationError, ValueError)
        assert issubclass(UtcpError, ConnectionError)
        assert issubclass(InsaneError, RuntimeError)

    def test_instance_code_override(self):
        err = InsaneError("specific", code=99)
        assert err.code == 99
        assert InsaneError("generic").code == 1


class TestEmitOutcome:
    def test_compares_equal_to_plain_strings(self):
        assert EmitOutcome.SENT == "sent"
        assert EmitOutcome.PENDING == "pending"
        assert EmitOutcome.DEGRADED == "degraded"
        assert str(EmitOutcome.NO_SUBSCRIBERS) == "no_subscribers"

    def test_as_int_is_a_c_style_code_space(self):
        assert EmitOutcome.SENT.as_int() == 0
        assert EmitOutcome.PENDING.as_int() == -1
        codes = [outcome.as_int() for outcome in EmitOutcome]
        assert len(codes) == len(set(codes))

    def test_check_emit_outcome_returns_the_enum(self):
        testbed, runtime = make_runtime()
        with Session(runtime, "app") as session:
            stream = session.create_stream(QosPolicy.fast(), name="s")
            source = session.create_source(stream, channel=1)
            emitted = []

            def producer():
                buffer = yield from session.get_buffer_wait(source, 64)
                emit_id = yield from session.emit_data(source, buffer, length=64)
                emitted.append(emit_id)

            testbed.sim.process(producer())
            testbed.sim.run()
            outcome = session.check_emit_outcome(source, emitted[0])
            assert isinstance(outcome, EmitOutcome)
            assert outcome is EmitOutcome.NO_SUBSCRIBERS
