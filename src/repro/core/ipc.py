"""Lock-free token rings between the client library and the runtime.

The client library and the runtime live in separate processes and exchange
*tokens* — slot ids plus a small header — over bounded SPSC rings mapped in
shared memory (paper §5.3, Fig. 4).  The simulated ring is a bounded
:class:`~repro.simnet.Store`; the CPU cost of one ring crossing is the
``insane_ipc`` stage, charged half at the enqueuing side and half at the
dequeuing side so that the cost lands on the correct simulated core.
"""

from types import MappingProxyType

from repro.simnet import Counter, Put, Store

#: the ``meta`` of every untraced emit and network delivery token:
#: read-only and shared
NO_META = MappingProxyType({})


class Token:
    """One entry of a token ring.

    ``slot_id`` identifies the payload slot in the runtime's shared pool
    (the processes never exchange pointers); ``buffer`` is the simulation's
    resolved handle so tests can verify zero-copy behaviour.  An emit
    token also names its :class:`~repro.core.channel.Source` and the
    emit's index in the source's outcome table: routing reads the
    channel key and time sensitivity off the source and writes the
    outcome at that index.  Its ``meta`` carries tracing only: the
    emit's lifecycle root as ``{"obs": root}``, or ``{"emit_ns": now}``
    under ``RuntimeConfig(trace=True)``, and otherwise a shared empty
    read-only mapping.  Delivery tokens carry no source.

    A delivery token is what the application gets: ``consume_data``
    returns the token it took off the sink ring.  Its ``meta`` is
    shared, so consumers only read it: a co-located copy carries the
    emit's own metadata, a traced network copy ``{"trace": record}``
    built once per message, and an untraced one a shared empty
    read-only mapping.  One token is built per emit and one per
    delivered copy, so this is a plain ``__slots__`` class rather than
    a dataclass.
    """

    __slots__ = (
        "slot_id", "length", "stream", "channel",
        "source_ip", "buffer", "meta", "source", "emit_index",
    )

    def __init__(self, slot_id, length, stream, channel, source_ip=None,
                 buffer=None, meta=None, source=None, emit_index=None):
        self.slot_id = slot_id
        self.length = length
        self.stream = stream
        self.channel = channel
        self.source_ip = source_ip
        self.buffer = buffer
        self.meta = {} if meta is None else meta
        self.source = source
        self.emit_index = emit_index

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
