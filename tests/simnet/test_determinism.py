"""Golden-trace determinism and heap-bound tests for the engine overhaul.

The overhauled :class:`repro.simnet.Simulator` claims bit-identical
behaviour to the pre-overhaul :class:`repro.simnet.legacy.LegacySimulator`
when both run the one application stack: same seed, same simulated
timestamps, same results.  This module proves it on the paper workloads
the golden corpus pins (:func:`repro.validate.golden.run_workload`).
"""

import pytest

from repro.simnet import Simulator
from repro.validate.golden import run_workload

# reduced iteration counts: these tests assert identity, not throughput
ROUNDS = 60
MESSAGES = 300


@pytest.mark.parametrize("workload", ["fig5_pingpong", "fig8a_streaming"])
def test_same_seed_same_trace(workload):
    """Two runs with the same seed are indistinguishable."""
    first = run_workload(workload, rounds=ROUNDS, messages=MESSAGES, seed=7)
    second = run_workload(workload, rounds=ROUNDS, messages=MESSAGES, seed=7)
    assert first["outcome"] == second["outcome"]


@pytest.mark.parametrize(
    "workload", ["fig5_pingpong", "fig8a_streaming", "fig8b_8sink"]
)
def test_fast_engine_matches_legacy_engine(workload):
    """Golden trace: engine swap alone changes nothing simulated.

    Both configurations run the one stack; only the event loop differs.
    Timestamps, event counts, and results must agree bit-for-bit.
    """
    fast = run_workload(workload, engine="fast",
                        rounds=ROUNDS, messages=MESSAGES, seed=3)
    golden = run_workload(workload, engine="legacy",
                          rounds=ROUNDS, messages=MESSAGES, seed=3)
    assert fast["outcome"] == golden["outcome"]


def test_cancelled_timers_keep_heap_bounded():
    """10k schedule/cancel cycles must not accumulate dead heap entries.

    This is the retransmission-timer pattern: a timer armed per packet and
    cancelled on delivery.  Lazy compaction keeps the heap proportional to
    the *live* timer population, not the cancellation history.
    """
    sim = Simulator()
    fired = []
    for i in range(10_000):
        handle = sim.schedule_cancellable(1e9 + i, fired.append, i)
        handle.cancel()
        # one live timer per 100 cancelled ones survives
        if i % 100 == 0:
            sim.schedule(1.0 + i, fired.append, -i)
        assert len(sim._heap) < 512
    executed = sim.run()
    assert executed == 100
    assert fired == [0] + [-i for i in range(100, 10_000, 100)]
    stats = sim.stats()
    assert stats["cancelled_purged"] == 10_000
    assert stats["heap_size"] == 0


def test_cancel_after_fire_is_harmless():
    """Cancelling an already-fired handle neither raises nor corrupts."""
    sim = Simulator()
    fired = []
    handle = sim.schedule_cancellable(5.0, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    handle.cancel()
    handle.cancel()
    sim.schedule(1.0, fired.append, "y")
    sim.run()
    assert fired == ["x", "y"]
