"""A ``sendfile``-based streaming baseline (paper §7.2).

``sendfile(2)`` moves data from a file descriptor through the kernel
without a userspace copy — sender-side zero copy, which is why the paper
uses it as the reference point for LUNAR Streaming.  The receiver is a
plain socket reader that reassembles fragment counts.
"""

import struct

from repro.datapaths import KernelUdpDatapath
from repro.netstack import IP_UDP_HEADER, Packet
from repro.simnet import Counter, Get, RateMeter, Store, Timeout

SENDFILE_PORT = 7600
_FRAME_HEADER = struct.Struct("!IIII")  # frame_id, index, count, frame_len

#: sendfile runs over TCP: the congestion/flow-control window bounds the
#: fragments in flight (modelled as a credit pool refilled by the receiver).
TCP_WINDOW_FRAGMENTS = 64


class SendfileStreamer:
    """Streams synthetic frames host0 -> host1 using sendfile semantics."""

    def __init__(self, testbed):
        self.testbed = testbed
        self.sim = testbed.sim
        self.server_host = testbed.hosts[0]
        self.client_host = testbed.hosts[1]
        self.datapath = KernelUdpDatapath.get(self.server_host)
        self.server_sock = self.datapath.socket(SENDFILE_PORT, blocking=False)
        self.client_sock = KernelUdpDatapath.get(self.client_host).socket(
            SENDFILE_PORT, blocking=False
        )
        self.max_fragment = self.server_host.profile.jumbo_mtu - IP_UDP_HEADER - _FRAME_HEADER.size
        self.frames_sent = Counter("sendfile.frames_sent")

    def stream_frames(self, frame_size, frames):
        """Send ``frames`` frames of ``frame_size`` bytes; returns
        ``(per_frame_latencies_ns, receiver_meter)``."""
        sim = self.sim
        latencies = []
        meter = RateMeter("sendfile")
        count = max(1, -(-frame_size // self.max_fragment))
        window = Store(sim, name="tcp.window")
        for _ in range(TCP_WINDOW_FRAGMENTS):
            window.put_nowait(1)

        def server():
            for frame_id in range(frames):
                for index in range(count):
                    yield Get(window)  # TCP flow control: wait for window space
                    data_len = min(self.max_fragment, frame_size - index * self.max_fragment)
                    header = _FRAME_HEADER.pack(frame_id, index, count, frame_size)
                    packet = Packet(
                        self.server_host.ip,
                        self.client_host.ip,
                        SENDFILE_PORT,
                        SENDFILE_PORT,
                        payload=header,
                        payload_len=_FRAME_HEADER.size + data_len,
                        seq=next(sim.ids),
                    )
                    packet.meta = {"frame_start": sim.now if index == 0 else None}
                    # sendfile: the kernel send path without the user copy
                    # (replaces the regular sendto/udp_tx path entirely)
                    yield Timeout(
                        self.server_host.stage_cost("sendfile_tx", data_len)
                    )
                    self.datapath.transmit(packet)
                self.frames_sent.value += 1

        def client():
            pending = {}
            received_frames = 0
            while received_frames < frames:
                batch = yield from self.client_sock.recv_many(32)
                for packet in batch:
                    window.try_put(1)  # ACK opens the window again
                    header = packet.payload[: _FRAME_HEADER.size]
                    frame_id, index, total, frame_len = _FRAME_HEADER.unpack(bytes(header))
                    state = pending.setdefault(frame_id, {"got": 0, "start": sim.now})
                    frame_start = packet.meta["frame_start"]
                    if frame_start is not None:
                        state["start"] = frame_start
                    state["got"] += 1
                    if state["got"] == total:
                        latencies.append(sim.now - state["start"])
                        meter.record(sim.now, frame_len)
                        del pending[frame_id]
                        received_frames += 1

        sim.process(client(), name="sendfile.client")
        sim.process(server(), name="sendfile.server")
        sim.run()
        return latencies, meter
