"""The native DPDK benchmark application (paper §6.2, "Raw DPDK").

The application owns the DPDK context directly: it busy-polls its own
receive queue, drains bursts, and releases mbufs itself — the maximum
performance (and maximum code complexity) configuration of Table 3.
"""

from repro.datapaths import DpdkDatapath
from repro.netstack import Packet
from repro.simnet import RateMeter, Tally


class DpdkBenchApp:
    """Ping-pong and streaming drivers over native DPDK."""

    def __init__(self, testbed, port=7001):
        self.testbed = testbed
        self.sim = testbed.sim
        self.port = port
        self.client_host = testbed.hosts[0]
        self.server_host = testbed.hosts[1]
        self.client_dp = DpdkDatapath(self.client_host)
        self.server_dp = DpdkDatapath(self.server_host)
        self.client_queue = self.client_dp.open_port(port)
        self.server_queue = self.server_dp.open_port(port)

    # -- ping-pong ------------------------------------------------------------

    def pingpong(self, rounds, size):
        sim = self.sim
        rtts = Tally("raw_dpdk_rtt")

        def client():
            for _ in range(rounds):
                start = sim.now
                yield from self.client_dp.send(
                    self._packet(self.client_host, self.server_host, size)
                )
                packets = yield from self.client_dp.recv_burst(self.client_queue)
                for packet in packets:
                    DpdkDatapath.release_rx(packet)
                rtts.record(sim.now - start)

        def server():
            while True:
                packets = yield from self.server_dp.recv_burst(self.server_queue)
                for packet in packets:
                    DpdkDatapath.release_rx(packet)
                    yield from self.server_dp.send(
                        self._packet(self.server_host, self.client_host, packet.payload_len)
                    )

        sim.process(server(), name="dpdk.server")
        sim.process(client(), name="dpdk.client")
        sim.run()
        return rtts

    # -- streaming throughput -------------------------------------------------

    def stream(self, messages, size, burst=32):
        sim = self.sim
        meter = RateMeter("raw_dpdk_stream")

        def sender():
            remaining = messages
            while remaining:
                count = min(burst, remaining)
                packets = [
                    self._packet(self.client_host, self.server_host, size)
                    for _ in range(count)
                ]
                yield from self.client_dp.send_many(packets)
                remaining -= count

        def receiver():
            received = 0
            while received < messages:
                packets = yield from self.server_dp.recv_burst(self.server_queue, burst)
                for packet in packets:
                    meter.record(sim.now, size)
                    DpdkDatapath.release_rx(packet)
                received += len(packets)

        sim.process(receiver(), name="dpdk.rx")
        sim.process(sender(), name="dpdk.tx")
        sim.run()
        return meter

    def _packet(self, src, dst, size):
        return Packet(src.ip, dst.ip, self.port, self.port, payload_len=size,
                      seq=next(self.sim.ids))
