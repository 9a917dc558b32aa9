"""Fragmentation/reassembly tests, including property-based coverage."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netstack import FramePolicy, Fragmenter, Reassembler
from repro.netstack.fragment import FRAGMENT_HEADER_LEN


def roundtrip(frame, max_fragment, shuffle=None):
    fragmenter = Fragmenter(max_fragment)
    reassembler = Reassembler()
    datagrams = [bytes(header) + bytes(data) for header, data in fragmenter.fragment(frame)]
    if shuffle:
        shuffle(datagrams)
    result = None
    for datagram in datagrams:
        out = reassembler.push(datagram)
        if out is not None:
            assert result is None, "frame delivered twice"
            result = out
    return result


def test_single_fragment_round_trip():
    assert roundtrip(b"abc", max_fragment=10) == b"abc"


def test_multi_fragment_round_trip():
    frame = bytes(range(256)) * 10
    assert roundtrip(frame, max_fragment=100) == frame


def test_out_of_order_reassembly():
    import random

    frame = b"0123456789" * 50
    rng = random.Random(7)
    assert roundtrip(frame, max_fragment=64, shuffle=rng.shuffle) == frame


def test_fragment_count():
    fragmenter = Fragmenter(100)
    assert fragmenter.fragment_count(0) == 1
    assert fragmenter.fragment_count(1) == 1
    assert fragmenter.fragment_count(100) == 1
    assert fragmenter.fragment_count(101) == 2
    assert fragmenter.fragment_count(1000) == 10


def test_interleaved_frames_reassemble_independently():
    fragmenter = Fragmenter(8)
    reassembler = Reassembler()
    frames = [b"A" * 20, b"B" * 20]
    datagram_sets = [
        [bytes(h) + bytes(d) for h, d in fragmenter.fragment(frame)] for frame in frames
    ]
    delivered = []
    # interleave fragment streams
    for pair in zip(*datagram_sets):
        for datagram in pair:
            out = reassembler.push(datagram)
            if out is not None:
                delivered.append(out)
    assert sorted(delivered) == sorted(frames)


def test_duplicate_fragment_is_idempotent():
    fragmenter = Fragmenter(8)
    reassembler = Reassembler()
    datagrams = [bytes(h) + bytes(d) for h, d in fragmenter.fragment(b"x" * 20)]
    assert reassembler.push(datagrams[0]) is None
    assert reassembler.push(datagrams[0]) is None  # duplicate
    assert reassembler.push(datagrams[1]) is None
    assert reassembler.push(datagrams[2]) == b"x" * 20


def test_pending_eviction_bounds_memory():
    fragmenter = Fragmenter(4)
    reassembler = Reassembler(max_pending_frames=2)
    # start three frames without completing any
    for frame in (b"a" * 8, b"b" * 8, b"c" * 8):
        datagrams = [bytes(h) + bytes(d) for h, d in fragmenter.fragment(frame)]
        reassembler.push(datagrams[0])
    assert reassembler.pending_frames <= 2


def test_push_rejects_short_datagram():
    with pytest.raises(ValueError):
        Reassembler().push(b"\x00" * (FRAGMENT_HEADER_LEN - 1))


def test_push_rejects_bad_index():
    import struct

    from repro.netstack.fragment import FRAGMENT_HEADER

    bogus = FRAGMENT_HEADER.pack(0, 5, 2, 10) + b"data"
    with pytest.raises(ValueError):
        Reassembler().push(bogus)


@settings(max_examples=60, deadline=None)
@given(
    frame=st.binary(min_size=1, max_size=4096),
    max_fragment=st.integers(min_value=1, max_value=512),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_roundtrip_any_frame_any_order(frame, max_fragment, seed):
    import random

    rng = random.Random(seed)
    assert roundtrip(frame, max_fragment, shuffle=rng.shuffle) == frame


class TestFramePolicy:
    def test_max_payload_jumbo(self):
        policy = FramePolicy()
        assert policy.max_payload == 9000 - 28

    def test_validate_raises_when_too_big(self):
        policy = FramePolicy()
        with pytest.raises(ValueError):
            policy.validate(9001)

    def test_jumbo_smaller_than_mtu_rejected(self):
        with pytest.raises(ValueError):
            FramePolicy(mtu=9000, jumbo_mtu=1500)
