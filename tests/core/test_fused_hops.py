"""Fast-engine hop fusion must be bit-identical to the unfused paths.

The fast engine fuses these hops (DESIGN.md §11):

* ``Session.consume_data(extra_ns=...)`` — IPC charge + app-touch sleep
  collapse into one :class:`TimeoutAt` wake-up;
* ``Link.carry`` into a NIC — propagation + rx-DMA collapse into one
  ``schedule_abs`` that places the frame straight into the NIC ring;
* ``Link.carry`` into a switch — propagation + switch arrival collapse
  into one ``schedule_abs`` of the output port's ``emit``;
* ready-``Get`` hand-offs — elided entirely when nothing else is runnable
  at the instant.

The legacy *engine* takes none of these shortcuts (no lane, no
``schedule_abs`` attr on the fused paths' guards), so running the same
paper workloads on both engines — on the back-to-back local testbed and
on the switched cloud testbed — and comparing final time, event counts,
and results proves the fusions preserve the observable execution exactly.
"""

import pytest

from repro.bench.harness import InsaneBenchApp
from repro.hw import Testbed
from repro.hw.profiles import PROFILES
from repro.simnet import Simulator
from repro.simnet.legacy import LegacySimulator


PROFILE_NAMES = ["local", "cloud"]


class TestFusedHopsMatchLegacyEngine:
    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    @pytest.mark.parametrize("sinks", [1, 3])
    def test_stream_workload_is_engine_invariant(self, sinks, profile):
        results = {}
        for name, engine_cls in (("fast", Simulator), ("legacy", LegacySimulator)):
            sim = engine_cls(seed=0)
            testbed = Testbed(PROFILES[profile], hosts=2, seed=0, sim=sim)
            app = InsaneBenchApp(testbed, "fast")
            meters = app.stream(60, 1024, sinks=sinks)
            results[name] = (
                sim.now,
                sim.stats()["events_executed"],
                [round(m.gbps(), 12) for m in meters],
                sim.failures,
            )
        assert results["fast"] == results["legacy"]

    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    def test_pingpong_workload_is_engine_invariant(self, profile):
        results = {}
        for name, engine_cls in (("fast", Simulator), ("legacy", LegacySimulator)):
            sim = engine_cls(seed=0)
            testbed = Testbed(PROFILES[profile], hosts=2, seed=0, sim=sim)
            app = InsaneBenchApp(testbed, "fast")
            rtts = app.pingpong(40, 64)
            results[name] = (
                sim.now,
                sim.stats()["events_executed"],
                rtts.count,
                round(rtts.mean, 9),
                sim.failures,
            )
        assert results["fast"] == results["legacy"]
