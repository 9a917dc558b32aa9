"""The transmit scheduler: best effort in FIFO order, time-sensitive
packets first behind the 802.1Qbv gate control list."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import QosPolicy, Session
from repro.core.config import RuntimeConfig
from repro.core.runtime import build_stack
from repro.core.scheduler import (
    CLASS_BEST_EFFORT,
    CLASS_TIME_SENSITIVE,
    GateControlList,
    TxScheduler,
)
from repro.obs import LifecycleTracer

#: 0-30 us: best effort only; 30-100 us: both classes
TS_GATE_OPENS_AT_30US = [
    (30_000, {CLASS_BEST_EFFORT}),
    (70_000, {CLASS_BEST_EFFORT, CLASS_TIME_SENSITIVE}),
]


class Item:
    """A queued packet, as far as the scheduler reads one."""

    trace = None

    def __init__(self, name):
        self.name = name


def push(scheduler, names, time_sensitive=False):
    for name in names:
        scheduler.push(Item(name), time_sensitive, now=0)


def popped(scheduler, now, max_items=10):
    return [item.name for item in scheduler.pop_ready(now, max_items)]


class TestFifo:
    """Best-effort packets: FIFO order, no gate."""

    def test_pops_in_push_order(self):
        scheduler = TxScheduler()
        push(scheduler, range(5))
        assert popped(scheduler, 0) == [0, 1, 2, 3, 4]

    def test_max_items_respected(self):
        scheduler = TxScheduler()
        push(scheduler, range(5))
        assert popped(scheduler, 0, max_items=2) == [0, 1]
        assert popped(scheduler, 0, max_items=2) == [2, 3]

    def test_next_ready_at(self):
        scheduler = TxScheduler()
        assert scheduler.next_ready_at(100) is None
        push(scheduler, ["x"])
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
    """Time-sensitive packets: behind the gate control list, ahead of
    best effort."""

    @staticmethod
    def make():
        return TxScheduler(GateControlList(TS_GATE_OPENS_AT_30US))

    def test_time_sensitive_has_priority_in_shared_window(self):
        scheduler = self.make()
        push(scheduler, ["be1", "be2"])
        push(scheduler, ["ts1", "ts2"], time_sensitive=True)
        assert popped(scheduler, 50_000, max_items=3) == ["ts1", "ts2", "be1"]
        assert popped(scheduler, 50_000) == ["be2"]

    def test_closed_gate_holds_time_sensitive_while_best_effort_passes(self):
        scheduler = self.make()
        push(scheduler, ["ts"], time_sensitive=True)
        push(scheduler, ["be"])
        assert popped(scheduler, 10_000) == ["be"]
        assert popped(scheduler, 10_000) == []
        assert popped(scheduler, 30_000) == ["ts"]

    def test_next_ready_at_accounts_for_gates(self):
        scheduler = self.make()
        push(scheduler, ["ts"], time_sensitive=True)
        assert scheduler.next_ready_at(10_000) == 30_000
        assert scheduler.next_ready_at(50_000) == 50_000
        push(scheduler, ["be"])
        assert scheduler.next_ready_at(10_000) == 10_000

    def test_empty_scheduler_has_no_ready_time(self):
        assert self.make().next_ready_at(0) is None

    def test_len_counts_all_classes(self):
        scheduler = self.make()
        push(scheduler, ["a"])
        push(scheduler, ["b"], time_sensitive=True)
        assert len(scheduler) == 2

    def test_take_all_empties_both_queues_past_a_closed_gate(self):
        scheduler = self.make()
        push(scheduler, ["ts"], time_sensitive=True)
        push(scheduler, ["be"])
        assert [item.name for item in scheduler.take_all()] == ["be", "ts"]
        assert len(scheduler) == 0
        assert scheduler.next_ready_at(0) is None


class TestBindingScheduler:
    """A time-sensitive message on a DPDK-pinned stack whose publisher
    binding keeps the time-sensitive gate closed for the first 30 us."""

    @staticmethod
    def gated_emit(config=None):
        testbed, deployment = build_stack("dpdk", config=config)
        sim = testbed.sim
        pub = Session(deployment.runtime(0), "pub")
        sub = Session(deployment.runtime(1), "sub")
        policy = QosPolicy.fast(time_sensitive=True)
        source = pub.create_source(pub.create_stream(policy, name="ts"), 1)
        delivered = []
        sub.create_sink(sub.create_stream(policy, name="ts"), 1,
                        callback=lambda token: delivered.append(sim.now))
        binding = deployment.runtime(0).bindings["dpdk"]
        binding.scheduler.gcl = GateControlList(TS_GATE_OPENS_AT_30US)

        def producer():
            buffer = pub.get_buffer(source, 64)
            yield from pub.emit_data(source, buffer, length=64)

        sim.process(producer(), name="pub")
        return sim, binding, delivered

    def test_polling_thread_wakes_when_the_gate_opens(self):
        sim, binding, delivered = self.gated_emit()
        sim.run()
        assert len(delivered) == 1
        assert 30_000 < delivered[0] < 40_000

    def test_fail_closes_the_record_of_a_packet_held_by_the_gate(self):
        tracer = LifecycleTracer()
        sim, binding, delivered = self.gated_emit(RuntimeConfig(tracer=tracer))
        sim.schedule(10_000.0, binding.fail, "injected")
        sim.run()
        assert delivered == []
        assert binding.sched_drops.value == 1 and len(binding.scheduler) == 0
        assert binding.runtime.memory.pool.in_use == 0
        (packet_record,) = tracer.roots[0].children
        assert packet_record.state == "dropped"
        assert (10_000.0, "drop", "datapath dpdk failed") \
            in packet_record.annotations
