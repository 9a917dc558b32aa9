"""Shared fixtures and ping-pong drivers for datapath tests."""

import pytest

from repro.datapaths import DpdkDatapath, KernelUdpDatapath
from repro.hw import Testbed
from repro.netstack import Packet


@pytest.fixture
def local_bed():
    return Testbed.local(seed=1)


class DropRecord(dict):
    """A packet trace that, like a lifecycle record, can be closed as
    dropped; it keeps each ``(now, reason)`` it is closed with."""

    def __init__(self):
        super().__init__()
        self.drops = []

    def mark_dropped(self, now, reason):
        self.drops.append((now, reason))


def run_udp_pingpong(bed, rounds, size, blocking=False, port=7000):
    """Drive a UDP ping-pong; returns per-round RTTs in ns."""
    sim = bed.sim
    a, b = bed.hosts[0], bed.hosts[1]
    sock_a = KernelUdpDatapath.get(a).socket(port, blocking=blocking)
    sock_b = KernelUdpDatapath.get(b).socket(port, blocking=blocking)
    rtts = []

    def client():
        for _ in range(rounds):
            start = sim.now
            yield from sock_a.send(Packet(a.ip, b.ip, port, port, payload_len=size))
            yield from sock_a.recv()
            rtts.append(sim.now - start)

    def server():
        while True:
            packet = yield from sock_b.recv()
            yield from sock_b.send(
                Packet(b.ip, a.ip, port, port, payload_len=packet.payload_len)
            )

    sim.process(server(), name="server")
    sim.process(client(), name="client")
    sim.run()
    return rtts


def run_dpdk_pingpong(bed, rounds, size, port=7001):
    """Drive a raw-DPDK ping-pong; returns per-round RTTs in ns."""
    sim = bed.sim
    a, b = bed.hosts[0], bed.hosts[1]
    dp_a = DpdkDatapath(a)
    dp_b = DpdkDatapath(b)
    queue_a = dp_a.open_port(port)
    queue_b = dp_b.open_port(port)
    rtts = []

    def client():
        for _ in range(rounds):
            start = sim.now
            yield from dp_a.send(Packet(a.ip, b.ip, port, port, payload_len=size))
            packets = yield from dp_a.recv_burst(queue_a)
            for packet in packets:
                DpdkDatapath.release_rx(packet)
            rtts.append(sim.now - start)

    def server():
        while True:
            packets = yield from dp_b.recv_burst(queue_b)
            for packet in packets:
                DpdkDatapath.release_rx(packet)
                yield from dp_b.send(
                    Packet(b.ip, a.ip, port, port, payload_len=packet.payload_len)
                )

    sim.process(server(), name="server")
    sim.process(client(), name="client")
    sim.run()
    return rtts


def mean(values):
    return sum(values) / len(values)
