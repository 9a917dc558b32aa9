"""The pure UDP-socket benchmark application (paper §6.2).

Two variants, as in Fig. 7: a *blocking* receive (each message pays a
process wake-up) and a *non-blocking* receive that continuously polls the
socket.
"""

from repro.datapaths import KernelUdpDatapath
from repro.netstack import Packet
from repro.simnet import RateMeter, Tally


class UdpBenchApp:
    """Ping-pong and streaming drivers over raw UDP sockets."""

    def __init__(self, testbed, blocking=False, port=7000):
        self.testbed = testbed
        self.sim = testbed.sim
        self.blocking = blocking
        self.port = port
        self.client_host = testbed.hosts[0]
        self.server_host = testbed.hosts[1]
        self.client_sock = KernelUdpDatapath.get(self.client_host).socket(port, blocking=blocking)
        self.server_sock = KernelUdpDatapath.get(self.server_host).socket(port, blocking=blocking)

    # -- ping-pong ------------------------------------------------------------

    def pingpong(self, rounds, size):
        """Run the RTT benchmark; returns a Tally of per-round RTTs (ns)."""
        sim = self.sim
        rtts = Tally("udp_%s_rtt" % ("blocking" if self.blocking else "nonblocking"))

        def client():
            for _ in range(rounds):
                start = sim.now
                yield from self.client_sock.send(self._packet(self.client_host, self.server_host, size))
                yield from self.client_sock.recv()
                rtts.record(sim.now - start)

        def server():
            while True:
                packet = yield from self.server_sock.recv()
                yield from self.server_sock.send(
                    self._packet(self.server_host, self.client_host, packet.payload_len)
                )

        sim.process(server(), name="udp.server")
        sim.process(client(), name="udp.client")
        sim.run()
        return rtts

    # -- streaming throughput -------------------------------------------------

    def stream(self, messages, size, burst=32):
        """Flood ``messages`` datagrams; returns the receiver's RateMeter."""
        sim = self.sim
        meter = RateMeter("udp_stream")

        def sender():
            remaining = messages
            while remaining:
                count = min(burst, remaining)
                packets = [
                    self._packet(self.client_host, self.server_host, size)
                    for _ in range(count)
                ]
                yield from self.client_sock.send_many(packets)
                remaining -= count

        def receiver():
            received = 0
            while received < messages:
                batch = yield from self.server_sock.recv_many(burst)
                for _packet in batch:
                    meter.record(sim.now, size)
                received += len(batch)

        sim.process(receiver(), name="udp.rx")
        sim.process(sender(), name="udp.tx")
        sim.run()
        return meter

    def _packet(self, src, dst, size):
        return Packet(src.ip, dst.ip, self.port, self.port, payload_len=size,
                      seq=next(self.sim.ids))
