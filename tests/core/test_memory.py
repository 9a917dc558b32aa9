"""Memory manager tests: slot lifecycle, zero-copy semantics, accounting."""

import mmap
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import BufferLifecycleError, PoolExhaustedError
from repro.core.memory import MemoryManager, SlotPool
from repro.hw import LOCAL_TESTBED
from repro.simnet import Simulator


def make_pool(slots=4, slot_bytes=64):
    return SlotPool(Simulator(), slots=slots, slot_bytes=slot_bytes, name="test")


def resident_bytes():
    """This process's current resident set size."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * mmap.PAGESIZE


class FreeListModel:
    """Reference allocation order: a free list of every slot id, built up
    front in descending order, popped from the end and pushed on the final
    release unless a blocked allocator takes the slot."""

    def __init__(self, slots):
        self.free = list(range(slots - 1, -1, -1))
        self.refs = {}
        self.waiters = 0

    def alloc(self):
        if not self.free:
            return None
        slot_id = self.free.pop()
        self.refs[slot_id] = 1
        return slot_id

    def add_waiter(self):
        slot_id = self.alloc()
        if slot_id is None:
            self.waiters += 1
        return slot_id

    def addref(self, slot_id):
        self.refs[slot_id] += 1

    def release(self, slot_id):
        """Drop one reference; returns the slot id if a waiter took it."""
        self.refs[slot_id] -= 1
        if self.refs[slot_id]:
            return None
        if self.waiters:
            self.waiters -= 1
            self.refs[slot_id] = 1
            return slot_id
        del self.refs[slot_id]
        self.free.append(slot_id)
        return None


class TestSlotPool:
    def test_alloc_release_cycle(self):
        pool = make_pool(slots=2)
        a = pool.alloc()
        b = pool.alloc()
        assert pool.free_slots == 0
        with pytest.raises(PoolExhaustedError):
            pool.alloc()
        pool.release(a)
        c = pool.alloc()
        assert c.slot_id == a.slot_id  # the slot is recycled
        pool.release(b)
        pool.release(c)
        assert pool.free_slots == 2

    def test_try_alloc_counts_exhaustions(self):
        pool = make_pool(slots=1)
        pool.alloc()
        assert pool.try_alloc() is None
        assert pool.exhaustions.value == 1

    def test_slots_are_distinct_memory(self):
        pool = make_pool(slots=2, slot_bytes=8)
        a = pool.alloc()
        b = pool.alloc()
        a.write(b"AAAA")
        b.write(b"BBBB")
        assert bytes(a.payload()) == b"AAAA"
        assert bytes(b.payload()) == b"BBBB"

    def test_write_too_large_rejected(self):
        pool = make_pool(slot_bytes=4)
        buffer = pool.alloc()
        with pytest.raises(ValueError):
            buffer.write(b"12345")

    def test_alloc_larger_than_slot_rejected(self):
        pool = make_pool(slot_bytes=16)
        with pytest.raises(ValueError):
            pool.try_alloc(size=17)

    def test_double_release_detected(self):
        pool = make_pool()
        buffer = pool.alloc()
        pool.release(buffer)
        with pytest.raises(BufferLifecycleError):
            pool.release(buffer)

    def test_foreign_buffer_rejected(self):
        pool_a = make_pool()
        pool_b = make_pool()
        buffer = pool_a.alloc()
        with pytest.raises(BufferLifecycleError):
            pool_b.release(buffer)

    def test_write_after_emit_rejected(self):
        pool = make_pool()
        buffer = pool.alloc()
        buffer.write(b"ok")
        buffer.freeze()
        with pytest.raises(BufferLifecycleError):
            buffer.write(b"no")

    def test_refcount_multi_sink_release(self):
        pool = make_pool(slots=1)
        buffer = pool.alloc()
        pool.addref(buffer)
        pool.addref(buffer, 2)  # four holders in total
        for _ in range(3):
            pool.release(buffer)
        assert pool.free_slots == 0  # still held by one borrower
        pool.release(buffer)
        assert pool.free_slots == 1

    def test_lookup_by_slot_id(self):
        pool = make_pool()
        buffer = pool.alloc()
        assert pool.lookup(buffer.slot_id) is buffer
        pool.release(buffer)
        with pytest.raises(BufferLifecycleError):
            pool.lookup(buffer.slot_id)

    def test_blocked_allocator_woken_by_release(self):
        sim = Simulator()
        pool = SlotPool(sim, slots=1, slot_bytes=8, name="t")
        held = pool.alloc()
        got = []
        pool.add_alloc_waiter(lambda buf, exc: got.append(buf))
        sim.run()
        assert not got
        pool.release(held)
        sim.run()
        assert len(got) == 1
        assert got[0].refcount == 1

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SlotPool(Simulator(), slots=0, slot_bytes=8)
        with pytest.raises(ValueError):
            SlotPool(Simulator(), slots=8, slot_bytes=0)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["alloc", "release"]), min_size=1, max_size=200))
    def test_property_free_plus_live_is_constant(self, ops):
        pool = make_pool(slots=8, slot_bytes=16)
        live = []
        for op in ops:
            if op == "alloc":
                buffer = pool.try_alloc()
                if buffer is not None:
                    live.append(buffer)
            elif live:
                pool.release(live.pop())
            assert pool.free_slots + pool.in_use == 8
            assert pool.in_use == len(live)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(["alloc", "addref", "release", "wait"]),
                  st.integers(min_value=0, max_value=63)),
        min_size=1, max_size=120,
    ))
    def test_property_allocation_order_matches_free_list(self, ops):
        sim = Simulator()
        pool = SlotPool(sim, slots=5, slot_bytes=8, name="order")
        model = FreeListModel(5)
        live = {}
        handed = []

        def waiter(buffer, exception):
            handed.append(buffer)

        for op, pick in ops:
            expected = None
            if op == "alloc":
                buffer = pool.try_alloc()
                got = None if buffer is None else buffer.slot_id
                assert got == model.alloc()
                if buffer is not None:
                    live[buffer.slot_id] = buffer
            elif op == "wait":
                expected = model.add_waiter()
                pool.add_alloc_waiter(waiter)
            elif live:
                slot_id = sorted(live)[pick % len(live)]
                if op == "addref":
                    pool.addref(live[slot_id])
                    model.addref(slot_id)
                else:
                    pool.release(live[slot_id])
                    if model.refs[slot_id] == 1:
                        del live[slot_id]
                    expected = model.release(slot_id)
            sim.run()
            assert [buffer.slot_id for buffer in handed] == \
                ([] if expected is None else [expected])
            for buffer in handed:
                assert buffer.refcount == 1
                live[buffer.slot_id] = buffer
            handed.clear()
            assert pool.free_slots == len(model.free)
            assert pool.in_use == 5 - len(model.free)

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="needs /proc/self/statm")
    def test_arena_costs_only_touched_pages(self):
        before = resident_bytes()
        pool = SlotPool(Simulator(), slots=65_536, slot_bytes=9_216,
                        name="arena")
        buffer = pool.alloc()
        buffer.write(b"\xa5" * 9_216)
        pool.release(buffer)
        grown = resident_bytes() - before
        assert grown < 16 * 2**20, "a 604 MB pool made RSS grow %.1f MB" % (
            grown / 2**20)
        assert pool.free_slots == 65_536

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_property_no_aliasing_between_live_slots(self, data):
        pool = make_pool(slots=6, slot_bytes=8)
        buffers = [pool.alloc() for _ in range(6)]
        payloads = {}
        for index, buffer in enumerate(buffers):
            content = data.draw(st.binary(min_size=1, max_size=8), label="slot%d" % index)
            buffer.write(content)
            payloads[index] = content
        for index, buffer in enumerate(buffers):
            assert bytes(buffer.payload()) == payloads[index]


class TestMemoryManager:
    def make_manager(self):
        return MemoryManager(Simulator(), LOCAL_TESTBED, name="m")

    def test_attach_alloc_release(self):
        manager = self.make_manager()
        manager.attach("app")
        buffer = manager.alloc_for("app", 100)
        manager.release_for("app", buffer)
        assert manager.pool.free_slots == manager.pool.slots

    def test_alloc_requires_attach(self):
        manager = self.make_manager()
        with pytest.raises(ValueError):
            manager.alloc_for("ghost", 10)

    def test_double_attach_rejected(self):
        manager = self.make_manager()
        manager.attach("app")
        with pytest.raises(ValueError):
            manager.attach("app")

    def test_detach_reclaims_leaked_slots(self):
        manager = self.make_manager()
        manager.attach("leaky")
        for _ in range(5):
            manager.alloc_for("leaky", 10)
        assert manager.pool.in_use == 5
        leaked = manager.detach("leaky")
        assert leaked == 5
        assert manager.pool.in_use == 0

    def test_ownership_transfer_on_emit(self):
        manager = self.make_manager()
        manager.attach("app")
        buffer = manager.alloc_for("app", 10)
        manager.transfer_ownership("app", buffer)
        # app no longer owns it: detach reclaims nothing
        assert manager.detach("app") == 0
        # the runtime still must release the slot itself
        assert manager.pool.in_use == 1

    def test_transfer_of_unowned_buffer_rejected(self):
        manager = self.make_manager()
        manager.attach("a")
        manager.attach("b")
        buffer = manager.alloc_for("a", 10)
        with pytest.raises(BufferLifecycleError):
            manager.transfer_ownership("b", buffer)

    def test_lend_to_sink_then_release(self):
        manager = self.make_manager()
        manager.attach("sink")
        buffer = manager.pool.alloc()
        manager.lend_to("sink", buffer)
        manager.release_for("sink", buffer)
        assert manager.pool.in_use == 0
