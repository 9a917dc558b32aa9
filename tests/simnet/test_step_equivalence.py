"""step(), run(), and run(until=) must drive identical executions.

The fast engine's fused paths make this non-obvious: a ready ``Get``
continues its generator in place when nothing else can run at that
instant, counting the hand-off it skips as executed.  Whatever mix of
driving modes the caller uses, the observable execution — event order,
timestamps, rng stream, and the stats() counters including
cancelled-timer purge accounting — must come out the same.

The workload is an engine churn mix: processes that take a batch of
slotted records from a store and charge them in a per-packet loop (one
``Timeout`` per record, as the datapaths charge a burst), zero-delay
cascades (lane traffic), short timers (heap churn), and
immediately-cancelled decoy timers in sufficient volume to trigger lazy
heap compaction.  The reference :class:`LegacySimulator`, which fuses
nothing, must drive the same mix to the same execution.
"""

from repro.simnet import Get, Simulator, Store, Timeout
from repro.simnet.engine import _COMPACT_MIN
from repro.simnet.legacy import LegacySimulator


class _Record:
    __slots__ = ("hits",)

    def __init__(self):
        self.hits = 0


def _noop():
    pass


def _driver(sim, order, budget):
    """Takes its batch from a store, charges it a record at a time, then
    sleeps; each round may leave a cancelled decoy and a lane cascade."""
    store = Store(sim)
    store.try_put([_Record() for _ in range(8)])

    def zero(depth):
        order.append(("zero", depth, round(sim.now, 9)))
        if depth:
            sim.schedule(0, zero, depth - 1)

    while budget[0] > 0:
        budget[0] -= 1
        order.append(("tick", round(sim.now, 9)))
        draw = sim.rng.random()
        if draw < 0.5:
            # decoy: cancelled immediately, purged later (compaction)
            sim.schedule_cancellable(1e6 + sim.rng.random(), _noop).cancel()
        if draw < 0.25:
            sim.schedule(0, zero, 2)
        batch = yield Get(store)
        for record in batch:
            yield Timeout(1.0 + sim.rng.random())
            record.hits += 1
            order.append(("act", round(sim.now, 9)))
        store.try_put(batch)
        yield Timeout(1.0 + sim.rng.random() * 20.0)


def _build(seed=0, drivers=4, ticks=220, engine=Simulator):
    sim = engine(seed=seed)
    order = []
    budget = [ticks]
    for _ in range(drivers):
        sim.process(_driver(sim, order, budget))
    return sim, order


_FINAL_KEYS = ("events_executed", "cancelled_pending", "cancelled_purged",
               "heap_size", "lane_size")


def _final(sim):
    stats = sim.stats()
    return {key: stats[key] for key in _FINAL_KEYS}


def test_workload_exercises_compaction():
    """The churn mix must actually hit the lazy-compaction machinery,
    otherwise the equivalence below proves nothing about purge accounting."""
    sim, _order = _build()
    returned = sim.run()
    stats = sim.stats()
    assert stats["cancelled_purged"] >= _COMPACT_MIN
    assert stats["cancelled_pending"] == 0
    assert returned == stats["events_executed"]


def test_step_matches_run():
    run_sim, run_order = _build()
    run_sim.run()
    step_sim, step_order = _build()
    steps = 0
    while step_sim.step():
        steps += 1
    assert step_order == run_order
    assert _final(step_sim) == _final(run_sim)
    assert step_sim.now == run_sim.now
    assert step_sim.rng.random() == run_sim.rng.random()
    # a step() may also run a ready Get's elided hand-off, so the call
    # count is at most — not exactly — the executed-event total
    assert steps <= step_sim.stats()["events_executed"]


def test_bounded_run_matches_run():
    run_sim, run_order = _build()
    run_sim.run()
    bounded_sim, bounded_order = _build()
    executed = 0
    deadline = 0.0
    while bounded_sim.peek() is not None:
        deadline += 17.0
        executed += bounded_sim.run(until=deadline)
    assert bounded_order == run_order
    assert _final(bounded_sim) == _final(run_sim)
    assert executed == bounded_sim.stats()["events_executed"]
    assert bounded_sim.rng.random() == run_sim.rng.random()


def test_mixed_driving_modes_match_run():
    """Alternating step / bounded-run / free-run segments mid-workload."""
    run_sim, run_order = _build()
    run_sim.run()
    mixed_sim, mixed_order = _build()
    for _ in range(50):
        mixed_sim.step()
    mixed_sim.run(until=mixed_sim.now + 23.0)
    for _ in range(50):
        mixed_sim.step()
    mixed_sim.run()
    assert mixed_order == run_order
    assert _final(mixed_sim) == _final(run_sim)
    assert mixed_sim.rng.random() == run_sim.rng.random()


def test_churn_stream_identical_across_engines():
    """On the legacy engine every hand-off is a scheduled event; on the
    fast engine a ready Get continues in place when nothing else can run
    at that instant.  Both must execute the one stream."""
    fast_sim, fast_order = _build()
    fast_sim.run()
    legacy_sim, legacy_order = _build(engine=LegacySimulator)
    legacy_sim.run()
    assert legacy_order == fast_order
    assert legacy_sim.now == fast_sim.now
    assert (legacy_sim.stats()["events_executed"]
            == fast_sim.stats()["events_executed"])
    assert legacy_sim.rng.random() == fast_sim.rng.random()
    # the comparison means something only if the fast engine fused
    assert (fast_sim.stats()["scheduled"]
            < legacy_sim.stats()["scheduled"])
