"""The INSANE client library (paper §5.1, Fig. 2).

A :class:`Session` is one application's connection to the local runtime.
All data-plane operations are generators: they run inside the application's
simulated process so their CPU cost lands on the right core, and they are
asynchronous by design to keep the zero-copy path free of hidden copies.

Typical source-side use::

    session = Session(runtime, "producer")
    stream = session.create_stream(QosPolicy.fast())
    source = session.create_source(stream, channel=4)

    def app(sim):
        buffer = session.get_buffer(source, 64)
        buffer.write(b"..." )
        emit_id = yield from session.emit_data(source, buffer)

and sink-side::

    sink = session.create_sink(stream, channel=4)
    delivery = yield from session.consume_data(sink)          # blocking
    ... read delivery.payload() ...
    session.release_buffer(sink, delivery)

Sessions, streams, sources, and sinks are context managers; the idiomatic
lifecycle is ``with``-scoped (close is idempotent, so explicit ``close()``
calls remain valid)::

    with Session(runtime, "producer") as session:
        with session.create_stream(QosPolicy.fast()) as stream:
            source = session.create_source(stream, channel=4)
            ...
"""

import itertools

from repro.core.channel import ChannelKey, Sink, Source, Stream
from repro.core.errors import (
    BufferLifecycleError,
    DatapathFailedError,
    PoolExhaustedError,
    SessionError,
)
from repro.core.ipc import Token
from repro.core.outcomes import EmitOutcome
from repro.core.qos import QosPolicy, resolve_mapping
from repro.core.runtime import INSANE_HEADER_BYTES, PENDING_DEGRADED
from repro.simnet import Get, Signal, Timeout, TimeoutAt, Wait

#: a source's outcome table keeps each emit's ``as_int`` code modulo 256
#: (one byte; PENDING's -1 is kept as 255), or PENDING_DEGRADED for a
#: pending emit that will read DEGRADED once routed
_OUTCOME_OF_BYTE = {outcome.as_int() & 0xFF: outcome for outcome in EmitOutcome}
_OUTCOME_OF_BYTE[PENDING_DEGRADED] = EmitOutcome.PENDING
_PENDING = EmitOutcome.PENDING.as_int() & 0xFF


class Session:
    """An application's session with the local INSANE runtime."""

    def __init__(self, runtime, name=None, slot_quota=None):
        self.runtime = runtime
        self.sim = runtime.sim
        self.app_id = name or ("app%d" % next(runtime.sim.ids))
        self.slot_quota = slot_quota
        self.streams = []
        self.closed = False
        self._credentials = {}
        self._source_numbers = itertools.count(1)
        # fast-engine marker: consume_data folds its post-receive sleep
        # into one exact-instant wake-up only when a zero-delay lane
        # exists (i.e. the overhauled engine is driving)
        self._lane = getattr(runtime.sim, "_lane", None)
        runtime.attach_session(self)

    def present(self, credential):
        """Present an access credential for later endpoint creations."""
        self._credentials[credential.stream] = credential
        return self

    def _authorize(self, stream_name, publish):
        """Enforce the publish (or else subscribe) right on a stream.

        Without an access controller nothing is checked, and the security
        module, with the HMAC library it loads, is never imported.
        """
        controller = self.runtime.config.access_controller
        if controller is None:
            return
        from repro.core.security import RIGHT_PUBLISH, RIGHT_SUBSCRIBE

        controller.enforce(
            self._credentials.get(stream_name), self.app_id, stream_name,
            RIGHT_PUBLISH if publish else RIGHT_SUBSCRIBE,
        )

    # -- stream management ----------------------------------------------------

    def create_stream(self, policy=None, name="default"):
        """Open a stream, mapping its QoS onto an available datapath."""
        self._check_open()
        policy = policy or QosPolicy()
        decision = resolve_mapping(
            policy,
            self.runtime.available_datapaths(),
            strategy=self.runtime.config.mapping_strategy,
        )
        if decision.warning:
            self.runtime.warn(decision.warning)
        binding = self.runtime.ensure_binding(decision.datapath)
        stream = Stream(self, name, policy, decision, binding)
        self.streams.append(stream)
        return stream

    def close_stream(self, stream):
        """Close ``stream`` and its endpoints; returns the references to
        undelivered messages its sinks released (see :meth:`close_sink`)."""
        released = stream.close()
        if stream in self.streams:
            self.streams.remove(stream)
        return released

    # -- endpoints -----------------------------------------------------------------

    def create_source(self, stream, channel):
        self._check_open()
        self._check_stream(stream)
        self._authorize(stream.name, publish=True)
        source = Source(self, stream, channel)
        stream.sources.append(source)
        return source

    def create_sink(self, stream, channel, callback=None):
        self._check_open()
        self._check_stream(stream)
        self._authorize(stream.name, publish=False)
        endpoint = self.runtime.register_sink(
            ChannelKey(stream.name, channel), self.app_id,
            datapath=stream.binding.name,
        )
        sink = Sink(self, stream, channel, endpoint, callback=callback)
        stream.sinks.append(sink)
        if callback is not None:
            sink.loop = self.sim.process(self._callback_loop(sink),
                                         name=self.app_id + ".cb")
        return sink

    def close_source(self, source):
        source.close()

    def close_sink(self, sink):
        """Close ``sink``: the runtime stops delivering to it, and the
        application's reference of every message still on its ring is
        released.  Returns how many were."""
        return sink.close()

    def outstanding_window(self, limit):
        """A bounded in-flight request window scoped to this session.

        Closed-loop clients acquire one slot per emit and release it when
        the matching response is consumed; ``acquire`` blocks while
        ``limit`` requests are outstanding.  See
        :class:`repro.core.window.OutstandingWindow`.
        """
        self._check_open()
        from repro.core.window import OutstandingWindow

        return OutstandingWindow(self, limit)

    # -- source data plane -------------------------------------------------------------

    def get_buffer(self, source, size):
        """Borrow a zero-copy buffer from the runtime's pool.

        Raises :class:`PoolExhaustedError` when no slot is free or the
        application is at its slot quota; :meth:`get_buffer_wait` waits
        instead.  A negative size, or one no frame carries, raises
        ``ValueError`` before a slot is taken.
        """
        if self.closed:
            raise SessionError("session %s is closed" % self.app_id)
        if source.closed:
            raise SessionError("source is closed")
        runtime = self.runtime
        if not 0 <= size <= runtime.max_emit_size:
            if size < 0:
                raise ValueError("buffer size %d is negative" % size)
            runtime.frame_policy.validate(size + INSANE_HEADER_BYTES)
        return runtime.memory.alloc_for(self.app_id, size)

    def get_buffer_wait(self, source, size):
        """Like :meth:`get_buffer`, but blocks until the application is
        under its slot quota and a slot is free.  Closing the session
        while the call waits raises :class:`SessionError`.

        Generator — use ``buffer = yield from session.get_buffer_wait(...)``.
        """
        try:
            return self.get_buffer(source, size)
        except PoolExhaustedError:
            signal = Signal(self.sim)

            def on_alloc(buffer, exc):
                if exc is None:
                    signal.succeed(buffer)
                else:
                    signal.fail(exc)

            self.runtime.memory.alloc_waiter_for(self.app_id, on_alloc)
            buffer = yield Wait(signal)
            return buffer

    def emit_data(self, source, buffer, length=None):
        """Emit a buffer on the source's channel; returns the emit id.

        After this call the buffer belongs to the middleware: writing to it
        is an error (no after-write protection, paper §5.1).
        """
        if self.closed:
            raise SessionError("session %s is closed" % self.app_id)
        if source.closed:
            raise SessionError("source is closed")
        stream = source.stream
        if stream.failed:
            raise DatapathFailedError(
                "stream %s: datapath failed and no surviving datapath "
                "satisfies its policy" % stream.name
            )
        if length is None:
            length = buffer.length
        if not 0 <= length <= len(buffer.view):
            if length < 0:
                raise SessionError("emit length %d is negative" % length)
            raise SessionError("emit length exceeds buffer capacity")
        buffer.frozen = True  # inline Buffer.freeze(): no-after-write
        runtime = self.runtime
        runtime.memory.transfer_ownership(self.app_id, buffer)
        outcomes = source._outcomes
        index = len(outcomes)
        outcomes.append(PENDING_DEGRADED if stream.degraded else _PENDING)
        emit_id = (self.app_id, source.number, index)
        tracer = runtime.tracer
        if tracer is not None:
            # open the root lifecycle record; egress bindings fork one
            # child per wire packet off it in _build_packet
            trace = tracer.begin(
                self.sim.now,
                stream=stream.name,
                channel=source.channel,
                size=length,
                datapath=stream.binding.name,
                host=runtime.host.name,
                app=self.app_id,
            )
        elif runtime.config.trace:
            trace = {"emit_ns": self.sim.now}
        else:
            trace = None
        token = Token(
            buffer.slot_id,
            length,
            stream.name,
            source.channel,
            runtime.host.ip,
            buffer,
            trace,
            source,
            index,
        )
        # resolved before the crossing: a binding polls its rings in the
        # order they were first resolved
        binding = stream.binding
        ring = binding.ring_for(self.app_id)
        yield Timeout(runtime.host.jitter(runtime.ipc_half_ns))
        # the emit enters the runtime now, on its stream's binding at this
        # instant: a failover during the crossing may have stranded or
        # re-mapped the stream
        if stream.failed:
            runtime.fail_emit(token, "failover: no surviving datapath")
            return emit_id
        if stream.binding is not binding:
            outcomes[index] = PENDING_DEGRADED
            ring = stream.binding.ring_for(self.app_id)
        yield ring.enqueue_effect(token)
        return emit_id

    def check_emit_outcome(self, source, emit_id):
        """Outcome of a previous emit, as an :class:`EmitOutcome`.

        The enum's values compare equal to the historical plain strings
        (``"sent"``, ``"pending"``, ...); failover re-maps report
        :attr:`EmitOutcome.DEGRADED` for emits routed over a fallback
        datapath.  An id that ``source`` did not issue raises
        :class:`SessionError`.
        """
        app_id, number, index = emit_id
        outcomes = source._outcomes
        if (
            app_id != source.session.app_id
            or number != source.number
            or not 0 <= index < len(outcomes)
        ):
            raise SessionError(
                "emit id %r was not issued by source %d of %s"
                % (emit_id, source.number, source.session.app_id)
            )
        return _OUTCOME_OF_BYTE[outcomes[index]]

    # -- sink data plane -----------------------------------------------------------------

    def data_available(self, sink):
        return len(sink.ring) > 0

    def consume_data(self, sink, blocking=True, extra_ns=0.0):
        """Consume the next delivery: the :class:`~repro.core.ipc.Token`
        taken off the sink's ring.  Returns None immediately when
        non-blocking and no data is present.

        ``extra_ns`` models post-receive application processing time: the
        sink sleeps that much longer before the call returns.  On the
        overhauled engine the IPC charge and the processing sleep are
        fused into a single exact-instant wake-up (one scheduler
        round-trip instead of two, counter parity kept); the wake instant
        and the jitter draw are bit-identical to the two-event form.
        """
        if self.closed:
            raise SessionError("session %s is closed" % self.app_id)
        if sink.closed:
            raise SessionError("sink is closed")
        if blocking:
            token = yield Get(sink.ring)
        else:
            ok, token = sink.ring.try_get()
            if not ok:
                return None
        runtime = self.runtime
        half = runtime.host.jitter(runtime.ipc_half_ns)  # drawn now, as unfused
        if extra_ns:
            sim = self.sim
            if self._lane is not None and sim.observer is None:
                target = sim.now + half  # unfused first wake-up
                yield TimeoutAt(target + extra_ns)
                sim._executed += 1  # parity with the elided second event
            else:
                yield Timeout(half)
                yield Timeout(extra_ns)
        else:
            yield Timeout(half)
        sink.received.value += 1
        if runtime.tracer is not None:
            # close the lifecycle record the token carries: its packet's
            # child or its emit's root (a plain stamp dict has no finish)
            finish = getattr(token.trace, "finish", None)
            if finish is not None:
                finish(self.sim.now, sink)
        return token

    def release_buffer(self, sink, delivery):
        """Return a consumed buffer to the middleware: a delivery token,
        or a bare buffer (such as one whose emit was refused).

        A token whose slot was freed since its delivery is refused before
        the pool is touched, even when the slot now holds a later message.
        """
        if isinstance(delivery, Token):
            buffer = delivery.buffer
            if delivery.lease != buffer.lease:
                raise BufferLifecycleError(
                    "application %r released a stale token: slot %d was "
                    "freed since its delivery" % (self.app_id, buffer.slot_id)
                )
        else:
            buffer = delivery
        self.runtime.memory.release_for(self.app_id, buffer)

    # -- lifecycle ------------------------------------------------------------------------

    def close(self):
        """Close the session, reclaiming every leaked slot; returns the
        count of references reclaimed, unconsumed deliveries included.
        Idempotent: a second close returns 0 and touches nothing."""
        if self.closed:
            return 0
        released = 0
        for stream in list(self.streams):
            released += self.close_stream(stream)
        self.closed = True
        return released + self.runtime.detach_session(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # -- internals -------------------------------------------------------------------------

    def _callback_loop(self, sink):
        while True:
            try:
                delivery = yield from self.consume_data(sink)
            except SessionError:
                return  # the sink or its session is closed
            if sink.callback(delivery) is not True:
                self.release_buffer(sink, delivery)

    def _check_open(self):
        if self.closed:
            raise SessionError("session %s is closed" % self.app_id)

    def _check_stream(self, stream):
        if stream.closed:
            raise SessionError("stream %s is closed" % stream.name)
        if stream.session is not self:
            raise SessionError("stream belongs to another session")
