"""Regression tests for bugs surfaced while building the validation
subsystem (ISSUE 3 satellite: divergence/fault bugs with pinned repros).

Two defects were found by running the property checkers over fuzzed
fault schedules:

1. ``DatapathFailure``/``DatapathStall`` aimed at a datapath the runtime
   never instantiated blew up *out of* ``sim.run()`` with a
   ``FaultInjectionError`` — a random fault schedule could kill an
   otherwise healthy run.  They now record a ``skip`` trace phase.
2. ``DatapathBinding.fail()`` silently discarded the count returned by
   ``_drop_scheduled()``, so packets stranded in the packet schedulers at
   failure time vanished from the accounting and broke packet
   conservation.  They are now counted in the ``sched_drops`` counter and
   surfaced through ``runtime.stats()``.
"""

from repro.core import QosPolicy, Session
from repro.core.runtime import InsaneDeployment
from repro.faults import FaultSchedule
from repro.hw import Testbed


def make_deployment():
    testbed = Testbed.local(seed=0)
    deployment = InsaneDeployment(testbed)
    return testbed, deployment, deployment.runtime(0)


class TestUninstantiatedBindingFaults:
    """Faults aimed at a binding that never existed must skip, not crash."""

    def test_datapath_failure_skips(self):
        testbed, deployment, _runtime = make_deployment()
        trace = FaultSchedule().datapath_failure(
            at=10_000.0, host=0, datapath="rdma"
        ).apply(testbed, deployment)
        testbed.sim.run()  # regression: raised FaultInjectionError here
        assert [
            (time_ns, kind, phase, target[:2])
            for time_ns, kind, phase, target in trace.events
        ] == [(10_000.0, "datapath_failure", "skip", ("host0", "rdma"))]

    def test_datapath_stall_skips(self):
        testbed, deployment, _runtime = make_deployment()
        trace = FaultSchedule().datapath_stall(
            at=10_000.0, for_ns=5_000.0, host=0, datapath="rdma"
        ).apply(testbed, deployment)
        testbed.sim.run()
        assert (10_000.0, "datapath_stall", "skip", ("host0", "rdma")) \
            in trace.events

    def test_instantiated_binding_still_fires(self):
        testbed, deployment, runtime = make_deployment()
        session = Session(runtime, "pub")
        stream = session.create_stream(QosPolicy.fast(), name="s")
        trace = FaultSchedule().datapath_failure(
            at=10_000.0, host=0, datapath=stream.datapath
        ).apply(testbed, deployment)
        testbed.sim.run()
        assert any(
            kind == "datapath_failure" and phase == "fire"
            for _, kind, phase, _ in trace.events
        )
        assert stream.failed or stream.datapath != "udp"


class _SchedulerPacket:
    """The minimal shape `_drop_scheduled` needs from a queued packet."""

    def __init__(self):
        self.tx_buffer = None
        self.trace = None


class TestSchedulerDropAccounting:
    def test_fail_counts_packets_stranded_in_scheduler(self):
        _testbed, _deployment, runtime = make_deployment()
        session = Session(runtime, "pub")
        stream = session.create_stream(QosPolicy.fast(), name="s")
        binding = runtime.bindings[stream.datapath]
        for _ in range(4):
            binding.scheduler.push(_SchedulerPacket(), False, now=0.0)
        binding.fail("test: burst stranded mid-schedule")
        # regression: packets dropped at fail() went uncounted
        assert binding.sched_drops.value == 4
        stats = runtime.stats()["bindings"][stream.datapath]
        assert stats["sched_drops"] == 4

    def test_sched_drops_zero_on_clean_binding(self):
        _testbed, _deployment, runtime = make_deployment()
        session = Session(runtime, "pub")
        stream = session.create_stream(QosPolicy.fast(), name="s")
        stats = runtime.stats()["bindings"][stream.datapath]
        assert stats["sched_drops"] == 0
