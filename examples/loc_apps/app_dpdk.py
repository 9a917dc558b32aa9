"""The benchmarking application written against native DPDK (Table 3).

Everything the middleware (or the kernel) normally hides is now the
application's problem: environment/port initialization, mempool sizing and
mbuf lifecycle, receive-queue setup and flow steering, burst transmit and
receive loops, AND a private network stack — DPDK delivers raw frames, so
this program builds and parses its own Ethernet/IPv4/UDP headers.
"""

import argparse

from repro.bench.harness import make_testbed
from repro.core.memory import SlotPool
from repro.datapaths import DpdkDatapath
from repro.netstack import (
    EthernetHeader,
    Ipv4Header,
    MacAddress,
    Packet,
    UdpHeader,
)
from repro.simnet import RateMeter, Tally

PING_PORT = 9200
FLOOD_PORT = 9201
MBUF_SIZE = 9216


class DpdkContext:
    """EAL-style initialization: mempool, port, queues, MAC addressing."""

    def __init__(self, host, mempool_slots, ports):
        self.host = host
        self.mempool = SlotPool(
            host.sim, slots=mempool_slots, slot_bytes=MBUF_SIZE,
            name=host.name + ".mempool",
        )
        self.datapath = DpdkDatapath(host, mempool=self.mempool)
        self.queues = {}
        for port in ports:
            self.queues[port] = self.datapath.open_port(port)
        self.mac = MacAddress.from_index(int(host.ip.rsplit(".", 1)[1]))

    def close(self):
        for port in list(self.queues):
            self.datapath.close_port(port)


class UserspaceStack:
    """The private network stack a DPDK application must bring itself."""

    def __init__(self, context, peer_mac):
        self.context = context
        self.peer_mac = peer_mac
        self.ident = 0

    def build_headers(self, src_ip, dst_ip, port, payload_len):
        self.ident = (self.ident + 1) & 0xFFFF
        eth = EthernetHeader(self.peer_mac, self.context.mac)
        ip = Ipv4Header(src_ip, dst_ip, 20 + 8 + payload_len, identification=self.ident)
        udp = UdpHeader(port, port, payload_len)
        return eth.to_bytes() + ip.to_bytes() + udp.to_bytes()

    def parse_headers(self, headers):
        eth = EthernetHeader.from_bytes(headers[0:14])
        if eth.dst != self.context.mac:
            raise RuntimeError("frame for foreign MAC %s" % eth.dst)
        ip = Ipv4Header.from_bytes(headers[14:34])
        udp = UdpHeader.from_bytes(headers[34:42])
        return ip, udp


def make_frame(stack, src_host, dst_host, port, size):
    headers = stack.build_headers(src_host.ip, dst_host.ip, port, size)
    packet = Packet(src_host.ip, dst_host.ip, port, port, payload_len=size)
    packet.meta = {"wire_headers": headers}
    return packet


def verify_frame(stack, packet, expected_size):
    headers = packet.meta.get("wire_headers")
    if headers is not None:
        ip, udp = stack.parse_headers(headers)
        if udp.payload_length != expected_size:
            raise RuntimeError("unexpected payload length %d" % udp.payload_length)


def latency(args):
    testbed = make_testbed(args.profile, seed=args.seed)
    sim = testbed.sim
    client_host, server_host = testbed.hosts[0], testbed.hosts[1]
    client_ctx = DpdkContext(client_host, args.mempool, [PING_PORT])
    server_ctx = DpdkContext(server_host, args.mempool, [PING_PORT])
    client_stack = UserspaceStack(client_ctx, server_ctx.mac)
    server_stack = UserspaceStack(server_ctx, client_ctx.mac)
    rtts = Tally("rtt")

    def client_proc():
        for _ in range(args.rounds):
            start = sim.now
            frame = make_frame(client_stack, client_host, server_host, PING_PORT, args.size)
            yield from client_ctx.datapath.send(frame)
            replies = yield from client_ctx.datapath.recv_burst(
                client_ctx.queues[PING_PORT], 1
            )
            for reply in replies:
                verify_frame(client_stack, reply, args.size)
                DpdkDatapath.release_rx(reply)
            rtts.record(sim.now - start)

    def server_proc():
        while True:
            requests = yield from server_ctx.datapath.recv_burst(
                server_ctx.queues[PING_PORT], args.burst
            )
            for request in requests:
                verify_frame(server_stack, request, args.size)
                DpdkDatapath.release_rx(request)
                echo = make_frame(server_stack, server_host, client_host,
                                  PING_PORT, request.payload_len)
                yield from server_ctx.datapath.send(echo)

    sim.process(server_proc())
    sim.process(client_proc())
    sim.run()
    client_ctx.close()
    server_ctx.close()
    return rtts


def throughput(args):
    testbed = make_testbed(args.profile, seed=args.seed)
    sim = testbed.sim
    client_host, server_host = testbed.hosts[0], testbed.hosts[1]
    client_ctx = DpdkContext(client_host, args.mempool, [FLOOD_PORT])
    server_ctx = DpdkContext(server_host, args.mempool, [FLOOD_PORT])
    client_stack = UserspaceStack(client_ctx, server_ctx.mac)
    server_stack = UserspaceStack(server_ctx, client_ctx.mac)
    meter = RateMeter("goodput")
    drops_at_start = server_ctx.datapath.mempool_drops.value

    def sender():
        remaining = args.messages
        while remaining:
            count = min(args.burst, remaining)
            batch = [
                make_frame(client_stack, client_host, server_host, FLOOD_PORT, args.size)
                for _ in range(count)
            ]
            yield from client_ctx.datapath.send_many(batch)
            remaining -= count

    def receiver():
        received = 0
        while received < args.messages:
            batch = yield from server_ctx.datapath.recv_burst(
                server_ctx.queues[FLOOD_PORT], args.burst
            )
            for packet in batch:
                verify_frame(server_stack, packet, args.size)
                meter.record(sim.now, args.size)
                DpdkDatapath.release_rx(packet)
            received += len(batch)
            dropped = server_ctx.datapath.mempool_drops.value - drops_at_start
            if dropped and received + dropped >= args.messages:
                break  # out of mbufs: account and stop rather than hang

    sim.process(receiver())
    sim.process(sender())
    sim.run()
    client_ctx.close()
    server_ctx.close()
    return meter


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--profile", choices=("local", "cloud"), default="local")
    parser.add_argument("--size", type=int, default=64)
    parser.add_argument("--rounds", type=int, default=1000)
    parser.add_argument("--messages", type=int, default=5000)
    parser.add_argument("--burst", type=int, default=32)
    parser.add_argument("--mempool", type=int, default=2048)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rtts = latency(args)
    print("RTT  : mean %.2f us  median %.2f us  p99 %.2f us"
          % (rtts.mean / 1e3, rtts.median / 1e3, rtts.percentile(99) / 1e3))
    meter = throughput(args)
    print("Tput : %.2f Gbps (%d messages of %d B)"
          % (meter.gbps(), args.messages, args.size))


if __name__ == "__main__":
    main()
