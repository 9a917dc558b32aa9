"""Unit tests of the fault injectors and schedules (repro.faults)."""

import gc
import weakref

import pytest

from repro.core import QosPolicy, Session
from repro.core.errors import FaultInjectionError
from repro.core.runtime import InsaneDeployment
from repro.faults import (
    CpuSlowdown,
    DatapathFailure,
    FaultSchedule,
    LinkDown,
    LossBurst,
    NicQueueSqueeze,
)
from repro.hw import Testbed
from repro.simnet import Timeout


def make_bed(seed=0):
    bed = Testbed.local(seed=seed)
    return bed, InsaneDeployment(bed)


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(FaultInjectionError):
            LinkDown(-1.0, 100.0)

    def test_zero_duration_rejected(self):
        with pytest.raises(FaultInjectionError):
            LinkDown(0.0, 0.0)

    def test_loss_rate_bounds(self):
        with pytest.raises(FaultInjectionError):
            LossBurst(0.0, 100.0, rate=0.0)
        with pytest.raises(FaultInjectionError):
            LossBurst(0.0, 100.0, rate=1.5)

    def test_slowdown_factor_positive(self):
        with pytest.raises(FaultInjectionError):
            CpuSlowdown(0.0, 100.0, factor=0.0)

    def test_error_carries_code(self):
        with pytest.raises(FaultInjectionError) as excinfo:
            LinkDown(-1.0, 100.0)
        assert excinfo.value.code == 42

    def test_unknown_link_raises_at_fire_time(self):
        bed, dep = make_bed()
        FaultSchedule().link_down(at=10.0, for_ns=10.0, link=7).apply(bed, dep)
        with pytest.raises(FaultInjectionError):
            bed.sim.run()

    def test_schedule_applies_exactly_once(self):
        bed, dep = make_bed()
        schedule = FaultSchedule().link_down(at=10.0, for_ns=10.0)
        schedule.apply(bed, dep)
        with pytest.raises(FaultInjectionError):
            schedule.apply(bed, dep)


class TestLinkFaults:
    def test_link_down_and_up(self):
        bed, dep = make_bed()
        link = bed.links[0]
        FaultSchedule().link_down(at=100.0, for_ns=200.0).apply(bed, dep)
        bed.sim.run()
        assert link.up  # restored after the flap
        # while down, frames are lost: drive the timeline manually
        bed2, dep2 = make_bed()
        link2 = bed2.links[0]
        trace = FaultSchedule().link_down(at=100.0, for_ns=200.0).apply(bed2, dep2)
        fired = []

        def probe():
            yield Timeout(150.0)
            fired.append(link2.up)

        bed2.sim.process(probe(), name="probe")
        bed2.sim.run()
        assert fired == [False]
        kinds = [(kind, phase) for _, kind, phase, _ in trace.events]
        assert kinds == [("link_down", "fire"), ("link_down", "clear")]

    def test_loss_burst_sets_and_clears_rate(self):
        bed, dep = make_bed()
        link = bed.links[0]
        FaultSchedule().loss_burst(at=50.0, for_ns=100.0, rate=0.25).apply(bed, dep)
        seen = []

        def probe():
            yield Timeout(100.0)
            seen.append(link.loss_rate)

        bed.sim.process(probe(), name="probe")
        bed.sim.run()
        assert seen == [0.25]
        assert link.loss_rate == 0.0


class TestHostFaults:
    def test_cpu_slowdown_scales_costs(self):
        bed, dep = make_bed()
        host = bed.hosts[0]
        FaultSchedule().cpu_slowdown(at=0.0, for_ns=1000.0, factor=3.0).apply(bed, dep)
        bed.sim.run()
        assert host._slowdown == 1.0  # restored
        host.slow_down(2.0)
        # jitter floor is 0.5x, so a 2x slowdown must at least reach 1.0x
        assert host.jitter(100.0) >= 100.0 * 2.0 * 0.5
        host.restore_speed()

    def test_nic_queue_squeeze_restores_capacity(self):
        bed, dep = make_bed()
        nic = bed.hosts[1].nic
        before = nic.rx_ring.capacity
        FaultSchedule().nic_queue_squeeze(
            at=10.0, for_ns=100.0, capacity=2, host=1
        ).apply(bed, dep)
        during = []

        def probe():
            yield Timeout(50.0)
            during.append(nic.rx_ring.capacity)

        bed.sim.process(probe(), name="probe")
        bed.sim.run()
        assert during == [2]
        assert nic.rx_ring.capacity == before

    @pytest.mark.parametrize("for_ns", [None, 500.0],
                             ids=["permanent", "timed"])
    def test_squeezed_simulation_is_collectable(self, for_ns):
        bed, dep = make_bed()
        FaultSchedule().nic_queue_squeeze(
            at=10.0, for_ns=for_ns, capacity=2, host=1
        ).apply(bed, dep)
        bed.sim.run()
        squeezed = bed.hosts[1].nic.rx_ring.capacity == 2
        assert squeezed is (for_ns is None)
        sim = weakref.ref(bed.sim)
        del bed, dep
        gc.collect()
        assert sim() is None

    @pytest.mark.parametrize("second_for_ns,expected", [
        (50.0, [4, 2, 4, None, None]),   # lifted inside the first squeeze
        (200.0, [4, 2, 2, 2, None]),     # outlasts the first squeeze
    ], ids=["nested", "staggered"])
    def test_overlapping_squeezes_restore_the_original_capacity(
            self, second_for_ns, expected):
        bed, dep = make_bed()
        nic = bed.hosts[1].nic
        before = nic.rx_ring.capacity
        (FaultSchedule()
         .nic_queue_squeeze(at=10.0, for_ns=100.0, capacity=4, host=1)
         .nic_queue_squeeze(at=20.0, for_ns=second_for_ns, capacity=2,
                            host=1)
         .apply(bed, dep))
        seen = []
        for at in (15.0, 50.0, 90.0, 150.0, 300.0):
            bed.sim.schedule_at(
                at, lambda: seen.append(nic.rx_ring.capacity))
        bed.sim.run()
        assert seen == [before if cap is None else cap for cap in expected]
        assert nic.rx_ring.capacity == before


class TestDatapathFaults:
    def test_datapath_failure_and_restore(self):
        bed, dep = make_bed()
        runtime = dep.runtime(0)
        session = Session(runtime, "app")
        stream = session.create_stream(QosPolicy.fast(), name="s")
        assert stream.datapath == "dpdk"
        FaultSchedule().datapath_failure(
            at=100.0, for_ns=5_000_000.0, host=0, datapath="dpdk"
        ).apply(bed, dep)
        bed.sim.run()
        # restored at the end: available again for new streams
        assert "dpdk" in runtime.available_datapaths()
        assert not runtime.bindings["dpdk"].failed

    def test_datapath_stall_requires_duration(self):
        from repro.faults import DatapathStall

        with pytest.raises(FaultInjectionError):
            DatapathStall(0.0, None)

    def test_runtime_target_without_deployment(self):
        bed = Testbed.local(seed=0)
        FaultSchedule().datapath_failure(at=10.0, host=0).apply(bed, None)
        with pytest.raises(FaultInjectionError):
            bed.sim.run()


class TestRandomSchedules:
    def test_same_seed_same_schedule(self):
        a = FaultSchedule.random(11, 1_000_000.0, faults=6)
        b = FaultSchedule.random(11, 1_000_000.0, faults=6)
        assert a.describe() == b.describe()
        assert len(a) == 6

    def test_different_seed_differs(self):
        a = FaultSchedule.random(11, 1_000_000.0)
        b = FaultSchedule.random(12, 1_000_000.0)
        assert a.describe() != b.describe()

    def test_generation_does_not_touch_sim_rng(self):
        bed, dep = make_bed(seed=4)
        before = bed.sim.rng.random()
        bed2, dep2 = make_bed(seed=4)
        FaultSchedule.random(99, 1_000_000.0)
        after = bed2.sim.rng.random()
        assert before == after
