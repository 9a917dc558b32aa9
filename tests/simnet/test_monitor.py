"""Tests for counters, tallies, and rate meters."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.simnet import Counter, DegenerateWindowError, RateMeter, Tally


class TestCounter:
    def test_repr(self):
        assert "c=0" in repr(Counter("c"))


class TestTally:
    def test_empty_tally_is_safe(self):
        tally = Tally("t")
        assert tally.count == 0
        assert tally.mean == 0.0
        assert tally.median == 0.0
        assert tally.stddev == 0.0
        assert tally.percentile(99) == 0.0

    def test_basic_statistics(self):
        tally = Tally("t")
        for value in (1, 2, 3, 4, 5):
            tally.record(value)
        assert tally.mean == 3
        assert tally.median == 3
        assert tally.minimum == 1
        assert tally.maximum == 5
        assert tally.total == 15

    def test_single_sample(self):
        tally = Tally("t")
        tally.record(42)
        assert tally.median == 42
        assert tally.percentile(99) == 42
        assert tally.stddev == 0.0

    def test_percentile_interpolation(self):
        tally = Tally("t")
        for value in (0, 10):
            tally.record(value)
        assert tally.percentile(50) == 5
        assert tally.percentile(25) == 2.5

    def test_summary_keys(self):
        tally = Tally("t")
        tally.record(1)
        summary = tally.summary()
        assert set(summary) == {"name", "count", "mean", "median", "p99", "min", "max", "stddev"}

    def test_sorted_view_cached_and_invalidated(self):
        """Regression for the quadratic-ish ``summary()``: percentile()
        must not re-sort per call, yet statistics stay identical after
        further records invalidate the cache."""
        tally = Tally("t")
        for value in (5, 1, 4, 2, 3):
            tally.record(value)
        assert tally.percentile(50) == 3
        first_view = tally._sorted
        assert first_view == [1, 2, 3, 4, 5]
        tally.percentile(99)
        assert tally._sorted is first_view  # reused, not re-sorted
        tally.record(0)  # must invalidate the cache
        assert tally._sorted is None
        assert tally.percentile(0) == 0
        assert tally._sorted == [0, 1, 2, 3, 4, 5]

    def test_cached_percentiles_match_fresh_tally(self):
        values = [7, 3, 9, 1, 5, 5, 2, 8]
        interleaved = Tally("a")
        for value in values:
            interleaved.record(value)
            interleaved.percentile(50)  # populate the cache mid-stream
        fresh = Tally("b")
        for value in values:
            fresh.record(value)
        assert interleaved.summary() == {**fresh.summary(), "name": "a"}

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False), min_size=1, max_size=200))
    def test_property_percentiles_bounded_and_monotone(self, samples):
        tally = Tally("t")
        for sample in samples:
            tally.record(sample)
        p10, p50, p90 = tally.percentile(10), tally.percentile(50), tally.percentile(90)
        epsilon = 1e-9 * max(1.0, abs(tally.maximum))
        assert tally.minimum <= p10 + epsilon
        assert p10 <= p50 + epsilon
        assert p50 <= p90 + epsilon
        assert p90 <= tally.maximum + epsilon
        assert tally.percentile(0) == tally.minimum
        assert tally.percentile(100) == tally.maximum


class TestRateMeter:
    def test_empty_meter(self):
        meter = RateMeter("m")
        assert meter.gbps() == 0.0
        assert meter.mpps() == 0.0

    def test_single_record_without_duration_raises(self):
        """Regression: a single-message window used to return 0.0,
        silently zeroing goodput for short benchmark windows."""
        meter = RateMeter("m")
        meter.record(100, 1024)
        with pytest.raises(DegenerateWindowError):
            meter.gbps()
        with pytest.raises(DegenerateWindowError):
            meter.mpps()

    def test_single_record_with_duration_counts_first_window(self):
        meter = RateMeter("m")
        # 1024 B serialized over 512 ns: the window opens at the start of
        # the first sample's serialization, so the rate is well defined
        meter.record(100, 1024, duration_ns=512)
        assert meter.elapsed_ns == 512
        assert meter.gbps() == pytest.approx(1024 * 8.0 / 512)
        assert meter.mpps() == pytest.approx(1000.0 / 512)

    def test_first_duration_extends_multi_sample_window(self):
        meter = RateMeter("m")
        meter.record(1000, 1000, duration_ns=500)
        meter.record(2000, 1000)
        # window: 500 (first serialization) + 1000 (inter-arrival)
        assert meter.elapsed_ns == 1500
        assert meter.gbps() == pytest.approx(2000 * 8.0 / 1500)

    def test_gbps_computation(self):
        meter = RateMeter("m")
        meter.record(0, 1000)
        meter.record(1000, 1000)  # 2000 B over 1000 ns
        assert meter.gbps() == pytest.approx(16.0)  # 16000 bits / 1000 ns

    def test_mpps_computation(self):
        meter = RateMeter("m")
        for t in range(11):
            meter.record(t * 100, 64)
        # 11 messages over 1000 ns -> 11 M msgs/s
        assert meter.mpps() == pytest.approx(11.0)
