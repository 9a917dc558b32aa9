"""LUNAR Streaming: a client-server frame-streaming framework (§7.2).

The server exposes the paper's interface — ``lnr_s_open_server``,
``lnr_s_loop`` with application-provided ``get_frame``/``wait_next`` — and
streams frames by fragmenting them into jumbo-frame-sized INSANE buffers.
The client connects (``lnr_s_connect``), reassembles fragments, and hands
complete frames to the application.

Frames may be real ``bytes`` (integrity verified end to end in tests) or
synthetic sizes (``int``), which exercise the identical code path without
materializing multi-megabyte payloads — used by the Fig. 11 benchmarks.
"""

import struct

from repro.core import QosPolicy, Session
from repro.netstack.fragment import FRAGMENT_HEADER, FRAGMENT_HEADER_LEN
from repro.simnet import Counter, Timeout

#: control channel (connection requests) and data channel ids
CONTROL_CHANNEL = 1
DATA_CHANNEL = 2


class LunarStreamServer:
    """``lnr_s_open_server``: streams frames to connected clients.

    An optional ``codec`` (see :mod:`repro.apps.codec`) compresses frames
    before fragmentation — the extension the paper leaves as future work
    (§7.2).  Server and client must agree on the codec.
    """

    def __init__(self, runtime, mode="fast", stream_name="lunar-stream", codec=None):
        self.runtime = runtime
        self.sim = runtime.sim
        self.host = runtime.host
        self.codec = codec
        policy = QosPolicy.fast() if mode == "fast" else QosPolicy.slow()
        self.session = Session(runtime, "lnr-server")
        self.stream = self.session.create_stream(policy, name=stream_name)
        self.control_sink = self.session.create_sink(self.stream, CONTROL_CHANNEL)
        self.data_source = self.session.create_source(self.stream, DATA_CHANNEL)
        self.max_fragment = runtime.max_emit_size - FRAGMENT_HEADER_LEN
        self.frames_sent = Counter("lnr.server.frames")
        #: send-start virtual time of each frame, index == frame id — used
        #: by the Fig. 11b end-to-end latency measurement
        self.frame_starts = []
        self._next_frame_id = 0

    def wait_for_client(self):
        """Block until a client sends a connection request (generator)."""
        delivery = yield from self.session.consume_data(self.control_sink)
        self.session.release_buffer(self.control_sink, delivery)
        return delivery.source_ip

    def loop(self, get_frame, wait_next, frames):
        """``lnr_s_loop``: request, fragment+send, wait, repeat (generator)."""
        for _ in range(frames):
            frame = get_frame()
            if frame is None:
                break
            yield from self.send_frame(frame)
            yield from wait_next()

    def send_frame(self, frame):
        """Fragment one frame into INSANE buffers and emit them (generator).

        ``frame`` is ``bytes`` (payload carried and verified) or an ``int``
        size (synthetic benchmark mode).
        """
        synthetic = isinstance(frame, int)
        if not synthetic and self.codec is not None:
            # encode cost is charged on the uncompressed size
            yield Timeout(self.host.stage_cost("codec", len(frame)))
            frame = self.codec.encode(frame)
        frame_len = frame if synthetic else len(frame)
        frame_id = self._next_frame_id
        self._next_frame_id += 1
        self.frame_starts.append(self.sim.now)
        count = max(1, -(-frame_len // self.max_fragment))
        view = None if synthetic else memoryview(frame)
        for index in range(count):
            start = index * self.max_fragment
            data_len = min(self.max_fragment, frame_len - start)
            total = FRAGMENT_HEADER_LEN + data_len
            buffer = yield from self.session.get_buffer_wait(self.data_source, total)
            header = FRAGMENT_HEADER.pack(frame_id, index, count, frame_len)
            if synthetic:
                # only the fragment header crosses as real bytes; the bulk
                # is declared via the emit length (identical code path,
                # no multi-megabyte materialization)
                buffer.write(header)
            else:
                buffer.write(header + bytes(view[start : start + data_len]))
            # fragmentation copies payload into the slot: app-side cost
            yield Timeout(self.host.stage_cost("frag_copy", data_len))
            yield from self.session.emit_data(self.data_source, buffer, length=total)
        self.frames_sent.value += 1

    def close(self):
        self.session.close()


class LunarStreamClient:
    """``lnr_s_connect``: receives and reassembles the frame stream."""

    def __init__(self, runtime, mode="fast", stream_name="lunar-stream",
                 synthetic=False, codec=None):
        self.runtime = runtime
        self.sim = runtime.sim
        self.host = runtime.host
        self.synthetic = synthetic
        self.codec = codec
        policy = QosPolicy.fast() if mode == "fast" else QosPolicy.slow()
        self.session = Session(runtime, "lnr-client")
        self.stream = self.session.create_stream(policy, name=stream_name)
        self.control_source = self.session.create_source(self.stream, CONTROL_CHANNEL)
        self.data_sink = self.session.create_sink(self.stream, DATA_CHANNEL)
        self.frames_received = Counter("lnr.client.frames")
        self._pending = {}

    def connect(self):
        """Send the connection request to the server (generator)."""
        buffer = yield from self.session.get_buffer_wait(self.control_source, 8)
        buffer.write(b"CONNECT!")
        yield from self.session.emit_data(self.control_source, buffer)

    def receive_frames(self, count, on_frame=None):
        """Receive ``count`` complete frames (generator).

        Returns a list of ``(frame_or_size, completion_ns)``; calls
        ``on_frame(frame_or_size)`` per completion when given.
        """
        frames = []
        while len(frames) < count:
            delivery = yield from self.session.consume_data(self.data_sink)
            frame = self._push_fragment(delivery)
            self.session.release_buffer(self.data_sink, delivery)
            if frame is not None:
                if self.codec is not None and not self.synthetic:
                    frame = self.codec.decode(frame)
                    # decode cost charged on the reconstructed size
                    yield Timeout(self.host.stage_cost("codec", len(frame)))
                self.frames_received.value += 1
                frames.append((frame, self.sim.now))
                if on_frame is not None:
                    on_frame(frame)
        return frames

    def _push_fragment(self, delivery):
        """Reassemble; returns the frame (bytes or size) when complete."""
        header = bytes(delivery.buffer.view[:FRAGMENT_HEADER_LEN])
        frame_id, index, count, frame_len = FRAGMENT_HEADER.unpack(header)
        synthetic = self.synthetic
        state = self._pending.get(frame_id)
        if state is None:
            state = _FrameAssembly(count, frame_len, synthetic)
            self._pending[frame_id] = state
        data_len = delivery.length - FRAGMENT_HEADER_LEN
        if synthetic:
            state.add(index, data_len)
        else:
            state.add(index, bytes(delivery.buffer.view[FRAGMENT_HEADER_LEN : delivery.length]))
        if state.complete:
            del self._pending[frame_id]
            return state.assemble()
        return None

    def close(self):
        self.session.close()


class _FrameAssembly:
    __slots__ = ("count", "frame_len", "synthetic", "parts", "received", "size_seen")

    def __init__(self, count, frame_len, synthetic):
        self.count = count
        self.frame_len = frame_len
        self.synthetic = synthetic
        self.parts = None if synthetic else [None] * count
        self.received = 0
        self.size_seen = 0

    def add(self, index, data):
        if self.synthetic:
            self.received += 1
            self.size_seen += data
        else:
            if self.parts[index] is None:
                self.received += 1
            self.parts[index] = data

    @property
    def complete(self):
        return self.received == self.count

    def assemble(self):
        if self.synthetic:
            if self.size_seen != self.frame_len:
                raise ValueError(
                    "synthetic frame size mismatch: %d != %d"
                    % (self.size_seen, self.frame_len)
                )
            return self.frame_len
        frame = b"".join(self.parts)
        if len(frame) != self.frame_len:
            raise ValueError("reassembled %d B, expected %d B" % (len(frame), self.frame_len))
        return frame
