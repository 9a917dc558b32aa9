"""Lock-free token rings between the client library and the runtime.

The client library and the runtime live in separate processes and exchange
*tokens* — slot ids plus a small header — over bounded SPSC rings mapped in
shared memory (paper §5.3, Fig. 4).  The simulated ring is a bounded
:class:`~repro.simnet.Store`; the CPU cost of one ring crossing is the
``insane_ipc`` stage, charged half at the enqueuing side and half at the
dequeuing side so that the cost lands on the correct simulated core.
"""

from repro.simnet import Counter, Put, Store


class Token:
    """One entry of a token ring.

    ``slot_id`` identifies the payload slot in the runtime's shared pool
    (the processes never exchange pointers); ``buffer`` is the simulation's
    resolved handle so tests can verify zero-copy behaviour.  An emit
    token also names its :class:`~repro.core.channel.Source` and the
    emit's index in the source's outcome table: routing reads the
    channel key and time sensitivity off the source and writes the
    outcome at that index.  ``trace`` is tracing only, as on a packet:
    the emit's lifecycle root under a tracer, ``{"emit_ns": now}`` under
    ``RuntimeConfig(trace=True)``, otherwise None.

    A delivery token is what the application gets: ``consume_data``
    returns the token it took off the sink ring.  It names no source,
    and its trace is its packet's record for a network copy and its
    emit's for a co-located one.  Its ``lease`` is its buffer's lease
    number when the token was built, which ``release_buffer`` checks.
    A delivered message is one token, put on every sink ring it reaches
    on the host, so consumers only read it.  One token is built per emit
    and one per delivered message, so this is a plain ``__slots__``
    class rather than a dataclass.
    """

    __slots__ = (
        "slot_id", "length", "stream", "channel",
        "source_ip", "buffer", "trace", "source", "emit_index", "lease",
    )

    def __init__(self, slot_id, length, stream, channel, source_ip=None,
                 buffer=None, trace=None, source=None, emit_index=None):
        self.slot_id = slot_id
        self.length = length
        self.stream = stream
        self.channel = channel
        self.source_ip = source_ip
        self.buffer = buffer
        self.trace = trace
        self.source = source
        self.emit_index = emit_index
        self.lease = None if buffer is None else buffer.lease

    def __repr__(self):
        return "Token(slot=%r, len=%r, %s:%s)" % (
            self.slot_id, self.length, self.stream, self.channel
        )

    def payload(self):
        """Read-only view of the delivered bytes."""
        return self.buffer.view[: self.length].toreadonly()


class TokenRing(Store):
    """A bounded SPSC ring of :class:`Token` that counts the tokens it
    accepts and refuses."""

    def __init__(self, sim, capacity, name):
        super().__init__(sim, capacity=capacity, name=name)
        self.enqueued = Counter(name + ".enqueued")
        self.rejected = Counter(name + ".rejected")

    def try_enqueue(self, token):
        """Non-blocking enqueue; returns False when the ring is full."""
        if self.try_put(token):
            self.enqueued.value += 1
            return True
        self.rejected.value += 1
        return False

    def enqueue_effect(self, token):
        """A ``Put`` effect that blocks the producer while the ring is full
        (backpressure rather than silent loss on the client side)."""
        self.enqueued.value += 1
        return Put(self, token)
