"""Kernel UDP datapath tests, including Fig. 7 latency calibration."""

import gc
import weakref

import pytest

from repro.datapaths import KernelUdpDatapath
from repro.hw import Testbed
from repro.netstack import Packet
from tests.datapaths.conftest import DropRecord, mean, run_udp_pingpong


def test_datagram_delivery_end_to_end(local_bed):
    sim = local_bed.sim
    a, b = local_bed.hosts
    sock = KernelUdpDatapath.get(b).socket(9000)
    sender = KernelUdpDatapath.get(a).socket(9000)
    received = []

    def tx():
        yield from sender.send(Packet(a.ip, b.ip, 9000, 9000, payload=b"hello"))

    def rx():
        packet = yield from sock.recv()
        received.append(packet)

    sim.process(tx())
    sim.process(rx())
    sim.run()
    assert len(received) == 1
    assert received[0].payload_bytes() == b"hello"


def test_demux_by_destination_port(local_bed):
    sim = local_bed.sim
    a, b = local_bed.hosts
    dp_b = KernelUdpDatapath.get(b)
    sock_1 = dp_b.socket(9001)
    sock_2 = dp_b.socket(9002)
    sender = KernelUdpDatapath.get(a).socket(9009)

    def tx():
        yield from sender.send(Packet(a.ip, b.ip, 9009, 9001, payload=b"one"))
        yield from sender.send(Packet(a.ip, b.ip, 9009, 9002, payload=b"two"))

    sim.process(tx())
    sim.run()
    assert len(sock_1.buffer) == 1
    assert len(sock_2.buffer) == 1


def test_packet_to_unbound_port_dropped(local_bed):
    sim = local_bed.sim
    a, b = local_bed.hosts
    dp_b = KernelUdpDatapath.get(b)
    sender = KernelUdpDatapath.get(a).socket(9000)

    def tx():
        yield from sender.send(Packet(a.ip, b.ip, 9000, 4242, payload=b"lost"))

    sim.process(tx())
    sim.run()
    assert dp_b.no_socket_drops.value == 1


def test_no_socket_drop_closes_the_traced_record(local_bed):
    sim = local_bed.sim
    a, b = local_bed.hosts
    dp_b = KernelUdpDatapath.get(b)
    record = DropRecord()
    sender = KernelUdpDatapath.get(a).socket(9000)

    def tx():
        yield from sender.send(Packet(a.ip, b.ip, 9000, 4242, payload=b"lost",
                                      trace=record))

    sim.process(tx())
    sim.run()
    assert dp_b.no_socket_drops.value == 1
    assert record.drops == [(record["kernel_rx_done"],
                             "udp: no socket on port 4242")]


def test_socket_buffer_overflow_closes_the_traced_record(local_bed):
    sim = local_bed.sim
    a, b = local_bed.hosts
    dp_b = KernelUdpDatapath.get(b)
    sock = dp_b.socket(9000)
    sock.buffer.capacity = 1  # nobody receives: the second datagram overflows
    sender = KernelUdpDatapath.get(a).socket(9000)
    kept, lost = DropRecord(), DropRecord()

    def tx():
        for record in (kept, lost):
            yield from sender.send(Packet(a.ip, b.ip, 9000, 9000,
                                          payload=b"x", trace=record))

    sim.process(tx())
    sim.run()
    assert dp_b.socket_overflow_drops.value == 1
    assert len(sock.buffer) == 1
    assert kept.drops == []
    assert lost.drops == [(lost["kernel_rx_done"],
                           "udp: socket buffer overflow on port 9000")]


def test_double_bind_rejected(local_bed):
    dp = KernelUdpDatapath.get(local_bed.hosts[0])
    dp.socket(9100)
    with pytest.raises(ValueError):
        dp.socket(9100)


def test_closed_socket_rejects_io(local_bed):
    dp = KernelUdpDatapath.get(local_bed.hosts[0])
    sock = dp.socket(9200)
    sock.close()
    with pytest.raises(RuntimeError):
        next(sock.send(Packet("10.0.0.1", "10.0.0.2", 9200, 9200, payload=b"x")))
    # the port can be rebound after close
    dp.socket(9200)


def test_singleton_per_host(local_bed):
    a = local_bed.hosts[0]
    assert KernelUdpDatapath.get(a) is KernelUdpDatapath.get(a)


def test_singleton_dies_with_its_host():
    """No process-wide registry keeps a finished simulation alive."""
    bed = Testbed.local(seed=1)
    KernelUdpDatapath.get(bed.hosts[0]).socket(9000)
    bed.sim.run()
    host = weakref.ref(bed.hosts[0])
    del bed
    gc.collect()
    assert host() is None


class TestLatencyCalibration:
    """RTT medians must land on the paper's Fig. 7 values (±5 %)."""

    def test_nonblocking_udp_local_rtt(self):
        rtts = run_udp_pingpong(Testbed.local(seed=2), rounds=300, size=64)
        assert mean(rtts) == pytest.approx(12_580, rel=0.05)

    def test_blocking_udp_local_rtt(self):
        rtts = run_udp_pingpong(Testbed.local(seed=3), rounds=300, size=64, blocking=True)
        assert mean(rtts) == pytest.approx(27_200, rel=0.05)

    def test_nonblocking_udp_cloud_rtt(self):
        rtts = run_udp_pingpong(Testbed.cloud(seed=4), rounds=300, size=64)
        assert mean(rtts) == pytest.approx(19_100, rel=0.05)

    def test_payload_size_changes_rtt_mildly(self):
        small = mean(run_udp_pingpong(Testbed.local(seed=5), rounds=200, size=64))
        large = mean(run_udp_pingpong(Testbed.local(seed=6), rounds=200, size=1024))
        assert large > small
        # paper Fig. 5: "no significant difference among payload sizes"
        assert (large - small) / small < 0.15
