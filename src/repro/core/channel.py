"""Streams, channels, sources, and sinks (paper §5.1, Fig. 1).

A *stream* associates QoS requirements with one or more *channels*; a
channel is a unidirectional flow between *sources* and *sinks* that share an
application-chosen channel id within the same stream.  These are client-side
handles; the runtime keeps its own registry of sink endpoints.
"""

from typing import NamedTuple

from repro.core.errors import BufferLifecycleError, SessionError
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
        # resolved once: routing reads this per emit
        self.time_sensitive = (
            policy.time_sensitivity is TimeSensitivity.TIME_SENSITIVE
        )

    @property
    def datapath(self):
        return self.decision.datapath

    def close(self):
        """Close the stream and its endpoints; returns the references its
        sinks released (see :meth:`Sink.close`)."""
        if self.closed:
            return 0
        for source in list(self.sources):
            source.close()
        released = 0
        for sink in list(self.sinks):
            released += sink.close()
        self.closed = True
        streams = self.session.streams
        if self in streams:
            streams.remove(self)
        return released

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def _rebind(self, decision, binding):
        """Runtime-side failover re-map: move the stream onto a surviving
        binding."""
        self.decision = decision
        self.binding = binding
        self.degraded = True
        self.failovers += 1


class Source:
    """A client-side source handle (``source_t``).

    ``number`` counts the session's sources from 1, and an emit id is
    ``(app_id, number, index)``.  ``_outcomes`` keeps one outcome byte
    per emit, at its index, which the runtime writes when it routes the
    emit; every past emit's outcome stays readable, also after ``close``.
    ``key`` is built once: routing reads it off every emit token.
    """

    def __init__(self, session, stream, channel):
        self.session = session
        self.stream = stream
        self.channel = channel
        self.key = ChannelKey(stream.name, channel)
        self.closed = False
        self.number = next(session._source_numbers)
        self._outcomes = bytearray()

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
        #: the endpoint's shared-memory ring: consume_data takes the
        #: delivery tokens off it
        self.ring = endpoint.ring
        #: the session's process handing deliveries to ``callback``
        self.loop = None

    def close(self):
        """Unregister the sink, then release the application's reference
        of every delivery left on its ring: a closed sink cannot consume
        them, and each would hold its pool slot until the session closes.
        A delivery the application has already released (through another
        sink's copy, twice) holds none.  Returns how many were released.
        """
        if self.closed:
            return 0
        self.closed = True
        session = self.session
        session.runtime.unregister_sink(self.endpoint)
        loop = self.loop
        if loop is not None and self.ring.drop_getter(loop.resume):
            # nothing reaches the ring any more: end the parked loop as
            # consume_data ends a call on a closed sink
            loop.resume(None, SessionError("sink is closed"))
        if self in self.stream.sinks:
            self.stream.sinks.remove(self)
        released = 0
        for delivery in self.ring.drain(len(self.ring)):
            try:
                session.release_buffer(self, delivery)
            except BufferLifecycleError:
                continue
            released += 1
        return released

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False
