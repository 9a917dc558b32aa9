"""Tests for the hot-path packet model, its slotted-metadata shim and
full wire serialization."""

import pytest

from repro.netstack import Packet, WIRE_OVERHEAD, wire_bytes
from repro.netstack.packet import parse_wire_bytes
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


class TestPacketMetaShim:
    def make(self):
        return Packet("10.0.0.1", "10.0.0.2", 1, 2, payload=b"x")

    def test_hot_keys_map_to_slots(self):
        packet = self.make()
        packet.meta["flow"] = "camera"
        assert packet.flow == "camera"
        packet.insane = (1, 2, 3)
        assert packet.meta["insane"] == (1, 2, 3)
        assert packet.meta.get("insane") == (1, 2, 3)

    def test_absent_hot_key_behaves_like_missing_dict_key(self):
        packet = self.make()
        assert "tx_buffer" not in packet.meta
        assert packet.meta.get("tx_buffer") is None
        assert packet.meta.get("tx_buffer", "d") == "d"
        assert packet.meta.pop("tx_buffer", "d") == "d"
        with pytest.raises(KeyError):
            packet.meta["tx_buffer"]
        with pytest.raises(KeyError):
            del packet.meta["tx_buffer"]

    def test_pop_hot_key_clears_the_slot(self):
        packet = self.make()
        buffer = object()
        packet.tx_buffer = buffer
        assert packet.meta.pop("tx_buffer", None) is buffer
        assert packet.tx_buffer is None

    def test_cold_keys_spill_lazily(self):
        packet = self.make()
        assert packet._extra is None  # no dict until a cold key is written
        packet.meta["arp"] = True
        assert packet._extra == {"arp": True}
        assert packet.meta["arp"] is True
        assert "arp" in packet.meta
        del packet.meta["arp"]
        assert "arp" not in packet.meta

    def test_dict_protocol_views(self):
        packet = self.make()
        meta = packet.meta
        assert len(meta) == 0
        assert not meta
        meta["flow"] = "f"
        meta["dds_topic"] = "t"
        assert sorted(meta.keys()) == ["dds_topic", "flow"]
        assert sorted(meta.items()) == [("dds_topic", "t"), ("flow", "f")]
        assert sorted(meta.values()) == ["f", "t"]
        assert sorted(iter(meta)) == ["dds_topic", "flow"]
        assert len(meta) == 2
        assert meta

    def test_setdefault(self):
        packet = self.make()
        assert packet.meta.setdefault("flow", "default") == "default"
        assert packet.flow == "default"
        assert packet.meta.setdefault("flow", "other") == "default"
