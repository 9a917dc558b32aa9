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
    resolved handle so tests can verify zero-copy behaviour.

    Three tokens are built per delivered message (emit, dispatch,
    per-sink delivery), so this is a plain ``__slots__`` class rather
    than a dataclass.
    """

    __slots__ = (
        "slot_id", "length", "stream", "channel",
        "emit_id", "source_ip", "buffer", "meta",
    )

    def __init__(self, slot_id, length, stream, channel,
                 emit_id=None, source_ip=None, buffer=None, meta=None):
        self.slot_id = slot_id
        self.length = length
        self.stream = stream
        self.channel = channel
        self.emit_id = emit_id
        self.source_ip = source_ip
        self.buffer = buffer
        self.meta = {} if meta is None else meta

    def __repr__(self):
        return "Token(slot=%r, len=%r, %s:%s)" % (
            self.slot_id, self.length, self.stream, self.channel
        )


class TokenRing:
    """A bounded SPSC ring of :class:`Token`."""

    def __init__(self, sim, capacity, name):
        self.sim = sim
        self.store = Store(sim, capacity=capacity, name=name)
        self.name = name
        self.enqueued = Counter(name + ".enqueued")
        self.rejected = Counter(name + ".rejected")

    def __len__(self):
        return len(self.store)

    @property
    def is_empty(self):
        return self.store.is_empty

    def try_enqueue(self, token):
        """Non-blocking enqueue; returns False when the ring is full."""
        if self.store.try_put(token):
            self.enqueued.value += 1
            return True
        self.rejected.value += 1
        return False

    def enqueue_effect(self, token):
        """A ``Put`` effect that blocks the producer while the ring is full
        (backpressure rather than silent loss on the client side)."""
        self.enqueued.value += 1
        return Put(self.store, token)

    def try_dequeue(self):
        ok, token = self.store.try_get()
        return token if ok else None

    def drain(self, max_items):
        """Dequeue up to ``max_items`` tokens without blocking."""
        tokens = []
        while len(tokens) < max_items:
            ok, token = self.store.try_get()
            if not ok:
                break
            tokens.append(token)
        return tokens
