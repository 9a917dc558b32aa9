"""FIFO and 802.1Qbv TSN scheduler tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scheduler import (
    CLASS_BEST_EFFORT,
    CLASS_TIME_SENSITIVE,
    FifoScheduler,
    GateControlList,
    TsnScheduler,
)


class TestFifo:
    def test_pops_in_push_order(self):
        scheduler = FifoScheduler()
        for index in range(5):
            scheduler.push(index)
        assert scheduler.pop_ready(now=0, max_items=10) == [0, 1, 2, 3, 4]

    def test_max_items_respected(self):
        scheduler = FifoScheduler()
        for index in range(5):
            scheduler.push(index)
        assert scheduler.pop_ready(0, 2) == [0, 1]
        assert scheduler.pop_ready(0, 2) == [2, 3]

    def test_next_ready_at(self):
        scheduler = FifoScheduler()
        assert scheduler.next_ready_at(100) is None
        scheduler.push("x")
        assert scheduler.next_ready_at(100) == 100


class TestGateControlList:
    def make_gcl(self):
        # 0-30 us: TS only; 30-100 us: both
        return GateControlList(
            [
                (30_000, {CLASS_TIME_SENSITIVE}),
                (70_000, {CLASS_BEST_EFFORT, CLASS_TIME_SENSITIVE}),
            ]
        )

    def test_cycle_length(self):
        assert self.make_gcl().cycle_ns == 100_000

    def test_is_open_within_windows(self):
        gcl = self.make_gcl()
        assert gcl.is_open(CLASS_TIME_SENSITIVE, 10_000)
        assert not gcl.is_open(CLASS_BEST_EFFORT, 10_000)
        assert gcl.is_open(CLASS_BEST_EFFORT, 50_000)
        # wraps cyclically
        assert not gcl.is_open(CLASS_BEST_EFFORT, 110_000)
        assert gcl.is_open(CLASS_BEST_EFFORT, 150_000)

    def test_next_open_at(self):
        gcl = self.make_gcl()
        assert gcl.next_open_at(CLASS_BEST_EFFORT, 10_000) == 30_000
        assert gcl.next_open_at(CLASS_BEST_EFFORT, 50_000) == 50_000
        # from inside the second window of cycle k to the next cycle
        assert gcl.next_open_at(CLASS_TIME_SENSITIVE, 99_999) == 99_999
        assert gcl.next_open_at(CLASS_BEST_EFFORT, 100_000 + 5_000) == 130_000

    def test_empty_gcl_rejected(self):
        with pytest.raises(ValueError):
            GateControlList([])

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            GateControlList([(0, {CLASS_BEST_EFFORT})])

    def test_class_never_open_raises(self):
        gcl = GateControlList([(10, {CLASS_TIME_SENSITIVE})])
        with pytest.raises(ValueError):
            gcl.next_open_at(CLASS_BEST_EFFORT, 0)

    @settings(max_examples=50, deadline=None)
    @given(now=st.integers(min_value=0, max_value=10_000_000))
    def test_property_next_open_is_open_and_minimal(self, now):
        gcl = self.make_gcl()
        for cls in (CLASS_BEST_EFFORT, CLASS_TIME_SENSITIVE):
            at = gcl.next_open_at(cls, now)
            assert at >= now
            assert gcl.is_open(cls, at)
            if at > now:
                assert not gcl.is_open(cls, now)


class TestTsnScheduler:
    def make(self):
        gcl = GateControlList(
            [
                (30_000, {CLASS_TIME_SENSITIVE}),
                (70_000, {CLASS_BEST_EFFORT, CLASS_TIME_SENSITIVE}),
            ]
        )
        return TsnScheduler(gcl)

    def test_gated_class_held_until_window(self):
        scheduler = self.make()
        scheduler.push("be", CLASS_BEST_EFFORT, now=0)
        assert scheduler.pop_ready(now=10_000, max_items=10) == []
        assert scheduler.pop_ready(now=30_000, max_items=10) == ["be"]

    def test_time_sensitive_has_priority_in_shared_window(self):
        scheduler = self.make()
        scheduler.push("be", CLASS_BEST_EFFORT, now=0)
        scheduler.push("ts", CLASS_TIME_SENSITIVE, now=0)
        assert scheduler.pop_ready(now=50_000, max_items=10) == ["ts", "be"]

    def test_next_ready_at_accounts_for_gates(self):
        scheduler = self.make()
        scheduler.push("be", CLASS_BEST_EFFORT, now=0)
        assert scheduler.next_ready_at(10_000) == 30_000
        scheduler.push("ts", CLASS_TIME_SENSITIVE, now=0)
        assert scheduler.next_ready_at(10_000) == 10_000

    def test_empty_scheduler_has_no_ready_time(self):
        assert self.make().next_ready_at(0) is None

    def test_len_counts_all_classes(self):
        scheduler = self.make()
        scheduler.push("a", CLASS_BEST_EFFORT)
        scheduler.push("b", CLASS_TIME_SENSITIVE)
        assert len(scheduler) == 2
