"""Streams, channels, sources, and sinks (paper §5.1, Fig. 1).

A *stream* associates QoS requirements with one or more *channels*; a
channel is a unidirectional flow between *sources* and *sinks* that share an
application-chosen channel id within the same stream.  These are client-side
handles; the runtime keeps its own registry of sink endpoints.
"""

from typing import NamedTuple

from repro.core.qos import TimeSensitivity
from repro.simnet import Counter


class ChannelKey(NamedTuple):
    """What makes endpoints rendezvous: stream name + channel id.

    A named tuple rather than a dataclass: construction, hashing, and
    equality all run at C speed, and a plain ``(stream, channel)`` tuple
    hashes equal to it — the runtime's per-packet sink lookups rely on
    both properties.
    """

    stream: str
    channel: int


class Stream:
    """A client-side stream handle (``stream_t``).

    Usable as a context manager: ``with session.create_stream(...) as s:``
    closes the stream (and its endpoints) on exit; ``close`` is idempotent.
    """

    def __init__(self, session, name, policy, decision, binding):
        self.session = session
        self.name = name
        self.policy = policy
        self.decision = decision      # MappingDecision: datapath + fallback
        self.binding = binding        # the runtime's DatapathBinding
        self.closed = False
        self.sources = []
        self.sinks = []
        #: True once a runtime failover re-mapped this stream onto a
        #: fallback datapath; emits then report DEGRADED outcomes.
        self.degraded = False
        #: True when the stream's datapath failed and *no* surviving
        #: datapath satisfies its policy: emits raise DatapathFailedError.
        self.failed = False
        #: number of failover re-maps this stream has survived.
        self.failovers = 0
        # resolved once: emit_data reads this per message
        self.time_sensitive = (
            policy.time_sensitivity is TimeSensitivity.TIME_SENSITIVE
        )

    @property
    def datapath(self):
        return self.decision.datapath

    def close(self):
        if self.closed:
            return
        for source in list(self.sources):
            source.close()
        for sink in list(self.sinks):
            sink.close()
        self.closed = True
        streams = self.session.streams
        if self in streams:
            streams.remove(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def _rebind(self, decision, binding):
        """Runtime-side failover re-map: move the stream (and the cached
        fast paths of its endpoints) onto a surviving binding."""
        self.decision = decision
        self.binding = binding
        self.degraded = True
        self.failovers += 1
        for source in self.sources:
            source._ring = None       # next emit resolves the new binding
        for sink in self.sinks:
            sink._ipc_half = binding.ipc_half_cost


class Source:
    """A client-side source handle (``source_t``)."""

    def __init__(self, session, stream, channel):
        self.session = session
        self.stream = stream
        self.channel = channel
        self.key = ChannelKey(stream.name, channel)
        self.closed = False
        self.emitted = Counter("source.emitted")
        self._next_emit_id = 0
        # the client-to-runtime ring, resolved lazily on first emit and
        # reused for every subsequent one (the binding never changes)
        self._ring = None

    def close(self):
        if not self.closed:
            self.closed = True
            if self in self.stream.sources:
                self.stream.sources.remove(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False


class Delivery:
    """What a sink hands the application: a borrowed zero-copy buffer.

    One is built per consumed message, so this is a plain ``__slots__``
    class rather than a dataclass.
    """

    __slots__ = (
        "buffer", "length", "channel", "stream", "source_ip", "recv_ns",
        "meta",
    )

    def __init__(self, buffer, length, channel, stream, source_ip=None,
                 recv_ns=0.0, meta=None):
        self.buffer = buffer
        self.length = length
        self.channel = channel
        self.stream = stream
        self.source_ip = source_ip
        self.recv_ns = recv_ns
        self.meta = {} if meta is None else meta

    def __repr__(self):
        return "Delivery(stream=%r, channel=%r, length=%r)" % (
            self.stream, self.channel, self.length
        )

    def payload(self):
        """Read-only view of the received bytes."""
        return self.buffer.view[: self.length].toreadonly()


class Sink:
    """A client-side sink handle (``sink_t``)."""

    def __init__(self, session, stream, channel, endpoint, callback=None):
        self.session = session
        self.stream = stream
        self.channel = channel
        self.key = ChannelKey(stream.name, channel)
        self.endpoint = endpoint      # the runtime-side SinkEndpoint
        self.callback = callback
        self.closed = False
        self.received = Counter("sink.received")
        # hot-path caches: the endpoint ring and the binding's IPC cost
        # helper are fixed for the sink's lifetime
        self._endpoint_ring = endpoint.ring
        self._ipc_half = stream.binding.ipc_half_cost

    @property
    def ring(self):
        return self.endpoint.ring

    def close(self):
        if not self.closed:
            self.closed = True
            self.session.runtime.unregister_sink(self.endpoint)
            if self in self.stream.sinks:
                self.stream.sinks.remove(self)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
