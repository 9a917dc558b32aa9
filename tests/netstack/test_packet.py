"""Tests for the hot-path packet model, its cold-metadata dict, the trace
drop helper and full wire serialization."""

import pytest

from repro.hw import Testbed
from repro.netstack import Packet, WIRE_OVERHEAD, wire_bytes
from repro.netstack.packet import parse_wire_bytes, trace_drop
from repro.simnet import Simulator


def make_packet(payload=b"hello world"):
    return Packet("10.0.0.1", "10.0.0.2", 7000, 7001, payload=payload)


def test_wire_size_includes_overhead():
    packet = make_packet(b"x" * 64)
    assert packet.wire_size == 64 + WIRE_OVERHEAD


def test_payload_len_without_payload_bytes():
    packet = Packet("10.0.0.1", "10.0.0.2", 1, 2, payload_len=4096)
    assert packet.payload is None
    assert packet.payload_len == 4096
    assert len(packet.payload_bytes()) == 4096


def test_packet_requires_payload_or_length():
    with pytest.raises(ValueError):
        Packet("10.0.0.1", "10.0.0.2", 1, 2)


def test_sequence_numbers_are_unique_and_increasing():
    """A packet's seq comes from the simulation that builds it; a packet
    built outside any simulation carries 0."""
    sim = Simulator()
    first = Packet("10.0.0.1", "10.0.0.2", 1, 2, payload=b"a", seq=next(sim.ids))
    second = Packet("10.0.0.1", "10.0.0.2", 1, 2, payload=b"b", seq=next(sim.ids))
    assert 0 < first.seq < second.seq
    assert make_packet().seq == 0


def test_memoryview_payload_is_zero_copy():
    backing = bytearray(b"0123456789")
    packet = Packet("10.0.0.1", "10.0.0.2", 1, 2, payload=memoryview(backing)[2:6])
    backing[2:6] = b"ABCD"  # mutate after packet construction
    assert packet.payload_bytes() == b"ABCD"


def test_wire_round_trip_preserves_everything():
    packet = make_packet(b"payload-bytes-123")
    raw = wire_bytes(packet)
    parsed, eth = parse_wire_bytes(raw)
    assert parsed.src_ip == packet.src_ip
    assert parsed.dst_ip == packet.dst_ip
    assert parsed.src_port == packet.src_port
    assert parsed.dst_port == packet.dst_port
    assert parsed.payload_bytes() == b"payload-bytes-123"
    assert eth.ethertype == 0x0800


def test_wire_bytes_length_matches_headers():
    packet = make_packet(b"\x00" * 100)
    raw = wire_bytes(packet)
    # 14 eth + 20 ip + 8 udp + payload (preamble/IFG/CRC are not in the
    # byte string, only in the wire_size accounting)
    assert len(raw) == 14 + 20 + 8 + 100


def test_trace_stamping_only_when_enabled():
    silent = make_packet()
    silent.stamp("t0", 123)
    assert silent.trace is None
    traced = Packet("10.0.0.1", "10.0.0.2", 1, 2, payload=b"x", trace={})
    traced.stamp("t0", 123)
    assert traced.trace == {"t0": 123}


class TestColdMeta:
    def test_new_packet_has_no_meta(self):
        packet = make_packet()
        assert packet.meta is None
        assert packet.insane is None and packet.flow is None
        assert packet.tx_buffer is None and packet.rx_buffer is None

    def test_cold_dict_set_by_sender_is_read_at_receiver(self):
        bed = Testbed.local(seed=0)
        src, dst = bed.hosts
        packet = Packet(src.ip, dst.ip, 4000, 5000, payload_len=64,
                        seq=next(bed.sim.ids))
        packet.meta = {"qos_class": 1, "city": (7, 0, False)}
        src.nic.transmit(packet)
        bed.sim.run()
        ok, received = dst.nic.rx_ring.try_get()
        assert ok
        assert received.meta == {"qos_class": 1, "city": (7, 0, False)}


class _LifecycleRecord(dict):
    def mark_dropped(self, ns, reason):
        self.dropped = (ns, reason)


def test_trace_drop_closes_lifecycle_records_only():
    record = _LifecycleRecord()
    trace_drop(record, 123, "link loss")
    assert record.dropped == (123, "link loss")
    plain = {"emit_ns": 1}
    trace_drop(plain, 123, "link loss")  # per-packet stamps: nothing to close
    assert plain == {"emit_ns": 1}
