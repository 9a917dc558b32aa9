"""Wall-clock performance harness for the simulation kernel.

Every figure in this reproduction funnels through :mod:`repro.simnet`, so
*wall-clock* throughput (events/sec) — not simulated time — bounds how many
messages, sinks, and sweeps a run can afford.  This module measures it on a
fixed suite of paper workloads and records the trajectory in
``BENCH_wallclock.json`` so perf regressions are visible PR over PR.

There is one application stack.  Each workload runs it on two event
loops:

``fast``
    :class:`repro.simnet.Simulator`: tuple heap, zero-delay lane, inline
    burst chains and fused hops.

``legacy``
    :class:`repro.simnet.legacy.LegacySimulator`: the pre-overhaul
    object-per-event heap, kept as an independent reference.

Both engines execute the same event stream, so every suite entry records an
exact ``identical_stream`` check (event count, final simulated time,
results, no process failures) next to the engine speedup.  The speedup
isolates the event loop; end-to-end and per-layer numbers for every entry
point come from the calibrated ``perf/`` benchmark (``BENCHMARK.json``).

Usage::

    python benchmarks/bench_wallclock.py            # reduced-message smoke
    python benchmarks/bench_wallclock.py --full     # paper-scale counts
"""

import hashlib
import json
import os
import platform
import time

from repro.bench.harness import InsaneBenchApp
from repro.hw import Testbed
from repro.hw.profiles import PROFILES
from repro.simnet import ChargeChain, Simulator
from repro.simnet.legacy import LegacySimulator

#: workload name -> (kind, kwargs) — fig5 ping-pong latency, fig8a
#: streaming throughput, fig8b 8-sink fan-out, exactly the shapes the
#: paper's evaluation leans on hardest.
SUITE = {
    "fig5_pingpong": {"kind": "pingpong", "size": 64},
    "fig8a_streaming": {"kind": "stream", "size": 1024, "sinks": 1},
    "fig8b_8sink": {"kind": "stream", "size": 1024, "sinks": 8},
}

ENGINES = {"fast": Simulator, "legacy": LegacySimulator}

#: smoke-mode iteration counts (CI); --full uses paper-scale counts.
QUICK_ROUNDS = 400
QUICK_MESSAGES = 3000
FULL_ROUNDS = 2000
FULL_MESSAGES = 20000

#: repetitions per measurement in :func:`run_suite` — wall time is
#: best-of-N because scheduler noise only ever adds time, never removes it.
SUITE_REPS = 3

#: engine-churn microbenchmark: enough events to swamp setup noise, small
#: enough for a CI smoke run.
CHURN_EVENTS = 200_000
CHURN_DRIVERS = 16
CHURN_BURST = 64
CHURN_CANCEL_FRACTION = 0.25


def run_workload(name, engine="fast", rounds=QUICK_ROUNDS,
                 messages=QUICK_MESSAGES, profile="local", seed=0, reps=1):
    """Run one suite workload on one engine.

    ``engine`` picks the event loop ("fast" or "legacy"); the stack above
    it is the same either way, so everything simulated must be
    bit-identical across engines (the golden-trace guarantee).  ``reps``
    repeats the whole run and keeps the fastest wall clock.
    """
    best = None
    for _ in range(max(1, reps)):
        record = _run_workload_once(name, engine, rounds, messages, profile,
                                    seed)
        if best is None or record["wall_s"] < best["wall_s"]:
            best = record
    return best


def _run_workload_once(name, engine, rounds, messages, profile, seed):
    spec = SUITE[name]
    sim = ENGINES[engine](seed=seed)
    testbed = Testbed(PROFILES[profile], hosts=2, seed=seed, sim=sim)
    app = InsaneBenchApp(testbed, "fast")
    wall_start = time.perf_counter()
    if spec["kind"] == "pingpong":
        tally = app.pingpong(rounds, spec["size"])
        result = {"median_rtt_ns": tally.median, "rounds": rounds}
    else:
        meters = app.stream(messages, spec["size"], sinks=spec["sinks"])
        result = {
            "per_sink_gbps": [meter.gbps() for meter in meters],
            "messages": messages,
        }
    wall_s = time.perf_counter() - wall_start
    stats = sim.stats()
    events = stats["events_executed"]
    return {
        "workload": name,
        "engine": engine,
        "seed": seed,
        "wall_s": wall_s,
        "events": events,
        "events_per_sec": events / wall_s if wall_s > 0 else 0.0,
        "sim_ns": sim.now,
        "result": result,
        "sim_stats": stats,
        "failures": len(sim.failures),
    }


def _noop():
    pass


class _ChurnRecord:
    """An inert slotted stand-in for a packet inside a churn chain."""

    __slots__ = ("payload_len", "hits")

    def __init__(self):
        self.payload_len = 64
        self.hits = 0


class _ChurnHost:
    """The minimal host shape a chain caches (stage costs)."""

    __slots__ = ()

    @staticmethod
    def stage_cost(key, size, burst=1, jitter=True):
        return 0.0  # never reached: churn chains declare no stages


class _ChurnDp:
    """The minimal datapath shape :class:`ChargeChain` constructs from."""

    __slots__ = ("sim", "host")

    def __init__(self, sim):
        self.sim = sim
        self.host = _ChurnHost()


class _ChurnChain(ChargeChain):
    """A charge chain over inert records: pure per-step engine cost.

    ``stages`` is empty (no rng draws, zero-cost steps), so every step
    measures exactly the chain-execution machinery: the per-record action,
    the inline-next proof, and the ``now``/``_executed`` bookkeeping.
    """

    __slots__ = ()

    stages = ()

    def _act(self, record):
        record.hits += 1


class _ChurnDriver:
    """One self-rescheduling burst source.

    Each tick draws from the shared rng, occasionally spawns an
    immediately-cancelled decoy timer (the per-packet retransmission-timer
    pattern that lazy compaction exists for), then runs one
    :class:`_ChurnChain` over its record batch; the chain resumes the
    driver, which schedules the next tick a short random delay out (so
    chains from different drivers almost always run with an empty lane and
    the inline path engages, as in a real poll loop).
    """

    __slots__ = ("sim", "dp", "batch", "budget", "_random", "_schedule",
                 "_cancellable")

    def __init__(self, sim, dp, budget):
        self.sim = sim
        self.dp = dp
        self.batch = [_ChurnRecord() for _ in range(CHURN_BURST)]
        self.budget = budget
        self._random = sim.rng.random
        self._schedule = sim.schedule
        self._cancellable = sim.schedule_cancellable

    def tick(self, _=None):
        budget = self.budget
        if budget[0] <= 0:
            return
        budget[0] -= 1
        if self._random() < CHURN_CANCEL_FRACTION:
            self._cancellable(1e6 + self._random(), _noop).cancel()
        _ChurnChain(self.dp, self.batch).apply(self.sim, self)

    def resume(self, value=None, exc=None):
        """Chain completion callback (the driver plays the process role)."""
        if exc is not None:
            raise exc
        self._schedule(1.0 + self._random() * 100.0, self.tick, None)


def run_churn(engine="fast", events=CHURN_EVENTS, seed=0, reps=1):
    """Pure engine churn: the identical event stream on either engine.

    :data:`CHURN_DRIVERS` drivers each run :class:`_ChurnChain` bursts of
    :data:`CHURN_BURST` zero-cost steps over slotted records, plus timed
    rescheduling (heap churn) and immediately-cancelled decoy timers
    (compaction coverage).  No processes, stores, or application code
    runs, so this isolates the per-event cost of the batched hot path —
    the machinery the fig8a speedup dilutes with stack callback time (see
    the Amdahl decomposition in DESIGN.md).  Both engines execute the same
    stream — on the legacy engine every chain step is a normally-scheduled
    heap event, on the fast engine steps run inline when provably next —
    so event counts and final simulated time must match exactly (checked
    by ``run_suite`` as ``identical_stream``, as for every suite entry).

    ``events`` is a budget: each tick accounts CHURN_BURST + 1 executed
    events (the tick plus its chain steps), and ticks stop once the budget
    is spent.
    """
    best = None
    for _ in range(max(1, reps)):
        record = _run_churn_once(engine, events, seed)
        if best is None or record["wall_s"] < best["wall_s"]:
            best = record
    return best


def _run_churn_once(engine, events, seed):
    sim = ENGINES[engine](seed=seed)
    dp = _ChurnDp(sim)
    ticks = max(events // (CHURN_BURST + 1), CHURN_DRIVERS)
    budget = [ticks]
    drivers = [_ChurnDriver(sim, dp, budget) for _ in range(CHURN_DRIVERS)]
    for driver in drivers:
        driver.tick()
    wall_start = time.perf_counter()
    sim.run()
    wall_s = time.perf_counter() - wall_start
    stats = sim.stats()
    executed = stats["events_executed"]
    return {
        "workload": "engine_churn",
        "engine": engine,
        "seed": seed,
        "wall_s": wall_s,
        "events": executed,
        "events_per_sec": executed / wall_s if wall_s > 0 else 0.0,
        "sim_ns": sim.now,
        "result": {"events_requested": events, "ticks": ticks,
                   "burst": CHURN_BURST, "drivers": CHURN_DRIVERS},
        "sim_stats": stats,
        "failures": len(sim.failures),
    }


def identical_stream(fast, legacy):
    """Whether two engines simulated exactly the same run.

    Both engines drive the one stack, so the event count, the final
    simulated time and the results must agree bit for bit, with no
    process failure on either side.
    """
    return (
        fast["failures"] == 0 and legacy["failures"] == 0
        and fast["events"] == legacy["events"]
        and fast["sim_ns"] == legacy["sim_ns"]
        and fast["result"] == legacy["result"]
    )


def _speedups(entry, fast, legacy):
    entry["speedup_events_per_sec"] = (
        fast["events_per_sec"] / legacy["events_per_sec"]
        if legacy["events_per_sec"] else 0.0
    )
    entry["speedup_wall"] = (
        legacy["wall_s"] / fast["wall_s"] if fast["wall_s"] else 0.0
    )


def run_suite(full=False, seed=0, compare_legacy=True, reps=SUITE_REPS,
              workers=1):
    """Run the whole suite; returns the record written to the report.

    ``workers`` shards the (workload, engine) measurements across
    processes via ``bench.perf`` sweep cells — each worker owns whole
    cores, so per-measurement wall clocks stay meaningful.  Perf cells
    are never cached: wall time is the measurement.
    """
    rounds = FULL_ROUNDS if full else QUICK_ROUNDS
    messages = FULL_MESSAGES if full else QUICK_MESSAGES
    engines = ("fast", "legacy") if compare_legacy else ("fast",)
    measured = {}
    if workers > 1:
        from repro.parallel.cells import make_cell
        from repro.parallel.executor import SweepExecutor

        cells = [
            make_cell("bench.perf", workload=name, engine=engine,
                      rounds=rounds, messages=messages, seed=seed, reps=reps)
            for name in SUITE for engine in engines
        ]
        sweep = SweepExecutor(workers=workers).run(cells)
        for result in sweep.results:
            params = result.cell["params"]
            measured[(params["workload"], params["engine"])] = result.payload
    else:
        for name in SUITE:
            for engine in engines:
                measured[(name, engine)] = run_workload(
                    name, engine, rounds=rounds, messages=messages,
                    seed=seed, reps=reps,
                )
    # the engine-only microbenchmark: no stack code at all
    for engine in engines:
        measured[("engine_churn", engine)] = run_churn(engine, seed=seed,
                                                       reps=reps)
    suite = {}
    for name in tuple(SUITE) + ("engine_churn",):
        fast = measured[(name, "fast")]
        entry = {"fast": fast}
        if compare_legacy:
            legacy = measured[(name, "legacy")]
            entry["legacy"] = legacy
            _speedups(entry, fast, legacy)
            entry["identical_stream"] = identical_stream(fast, legacy)
        suite[name] = entry
    return {
        "mode": "full" if full else "quick",
        "seed": seed,
        "rounds": rounds,
        "messages": messages,
        "reps": reps,
        "workers": workers,
        "suite": suite,
    }


def check_trajectory(path="BENCH_wallclock.json", workload="fig8a_streaming",
                     wall_factor=3.0, reps=SUITE_REPS):
    """The no-op-hook check: a tracing-off run vs the committed trajectory.

    Re-runs ``workload`` with the same parameters as the newest committed
    record and compares against its ``fast`` entry: the simulated outcome
    (event count, final sim time) must match **exactly** — the lifecycle
    hooks added for ``repro.obs`` are inert when no tracer is configured —
    and wall clock must stay within ``wall_factor`` (loose, so the check
    holds across machines; the trend lives in the appended history).

    Returns ``(ok, lines)``.
    """
    lines = []
    if not os.path.exists(path):
        return False, ["trajectory: no committed report at %s" % path]
    with open(path) as handle:
        runs = json.load(handle)
    if not isinstance(runs, list):
        runs = [runs]
    baseline_run = next(
        (run for run in reversed(runs) if workload in run.get("suite", {})),
        None,
    )
    if baseline_run is None:
        return False, ["trajectory: no committed %s record" % workload]
    baseline = baseline_run["suite"][workload]["fast"]
    current = run_workload(
        workload, "fast",
        rounds=baseline_run.get("rounds", QUICK_ROUNDS),
        messages=baseline_run.get("messages", QUICK_MESSAGES),
        seed=baseline_run.get("seed", 0),
        reps=reps,
    )
    ok = True
    if current["events"] != baseline["events"]:
        ok = False
        lines.append(
            "trajectory: %s executed %d events, committed record has %d "
            "(tracing-off hooks must not change the simulation)"
            % (workload, current["events"], baseline["events"])
        )
    if current["sim_ns"] != baseline["sim_ns"]:
        ok = False
        lines.append(
            "trajectory: %s ended at sim_ns=%r, committed record has %r"
            % (workload, current["sim_ns"], baseline["sim_ns"])
        )
    ratio = (current["wall_s"] / baseline["wall_s"]
             if baseline["wall_s"] > 0 else float("inf"))
    if ratio > wall_factor:
        ok = False
        lines.append(
            "trajectory: %s wall %.3fs is %.2fx the committed %.3fs "
            "(allowed factor %.1f)"
            % (workload, current["wall_s"], ratio, baseline["wall_s"],
               wall_factor)
        )
    lines.append(
        "trajectory: %s events=%d (committed %d), wall %.3fs vs %.3fs "
        "(%.2fx) -> %s"
        % (workload, current["events"], baseline["events"],
           current["wall_s"], baseline["wall_s"], ratio,
           "OK" if ok else "FAIL")
    )
    return ok, lines


#: the perf ratchet fails when a fast-engine churn run falls below this
#: fraction of the newest committed events/sec — generous on purpose: CI
#: runners are shared and slow relative to the machines that append
#: BENCH_wallclock.json entries, so the ratchet catches "the batched hot
#: path stopped engaging" (a many-x cliff), not percent-level drift.
RATCHET_FLOOR_FRACTION = 0.25

#: set (to anything non-empty) to skip the ratchet, e.g. on a machine
#: known to be much slower than the committed baseline's host
RATCHET_SKIP_ENV = "INSANE_PERF_RATCHET_SKIP"


def check_ratchet(path="BENCH_wallclock.json",
                  floor_fraction=RATCHET_FLOOR_FRACTION, reps=SUITE_REPS):
    """The perf ratchet: fast-engine churn vs the committed trajectory.

    Reruns the ``engine_churn`` microbenchmark on the fast engine and
    fails when its events/sec lands below ``floor_fraction`` of the newest
    committed record's.  Setting :data:`RATCHET_SKIP_ENV` in the
    environment skips the check (returns ok with a note).

    Returns ``(ok, lines)``.
    """
    if os.environ.get(RATCHET_SKIP_ENV):
        return True, ["ratchet: skipped (%s is set)" % RATCHET_SKIP_ENV]
    if not os.path.exists(path):
        return False, ["ratchet: no committed report at %s" % path]
    with open(path) as handle:
        runs = json.load(handle)
    if not isinstance(runs, list):
        runs = [runs]
    baseline_run = next(
        (run for run in reversed(runs)
         if "engine_churn" in run.get("suite", {})),
        None,
    )
    if baseline_run is None:
        return False, ["ratchet: no committed engine_churn record"]
    committed = baseline_run["suite"]["engine_churn"]["fast"]["events_per_sec"]
    floor = committed * floor_fraction
    current = run_churn("fast", seed=baseline_run.get("seed", 0), reps=reps)
    ok = current["events_per_sec"] >= floor
    lines = [
        "ratchet: engine_churn fast %.3f Mev/s vs committed %.3f Mev/s "
        "(floor %.3f = %.0f%%) -> %s"
        % (current["events_per_sec"] / 1e6, committed / 1e6, floor / 1e6,
           floor_fraction * 100, "OK" if ok else "FAIL")
    ]
    if not ok:
        lines.append(
            "ratchet: the batched hot path is likely not engaging — "
            "profile with 'insane bench profile --workload engine_churn' "
            "(or set %s on a known-slow machine)" % RATCHET_SKIP_ENV
        )
    return ok, lines


def record_digest(record):
    """sha256 over the *measurement* fields of one run record.

    The ``meta`` block (wall-clock timestamp, host identity) is excluded:
    two same-seed runs of the same code produce the same digest, so
    record-level comparisons and git diffs are not churned by when or
    where a run happened.
    """
    stripped = {k: v for k, v in record.items() if k != "meta"}
    text = json.dumps(stripped, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def write_report(record, path="BENCH_wallclock.json"):
    """Append ``record`` to the perf-trajectory report, atomically.

    The file holds a list of run records (newest last) so every PR extends
    the recorded trajectory instead of erasing it.  The write goes through
    a ``.tmp`` sibling + ``os.replace`` so a crashed run never corrupts
    history.

    Wall-clock and host facts go into a separate ``meta`` block —
    :func:`record_digest` and the ``--trajectory`` check compare
    measurement fields only, so re-running the bench never churns a
    digest (or a git diff) merely because time passed.
    """
    record = dict(record)
    meta = dict(record.get("meta") or {})
    meta.setdefault("unix_time", time.time())
    meta.setdefault("host", platform.node())
    meta.setdefault("python", platform.python_version())
    record["meta"] = meta
    runs = []
    if os.path.exists(path):
        with open(path) as handle:
            try:
                runs = json.load(handle)
            except ValueError:
                runs = []
        if not isinstance(runs, list):
            runs = [runs]
    runs.append(record)
    tmp = path + ".tmp"
    with open(tmp, "w") as handle:
        json.dump(runs, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)
    return record


def summary_lines(record):
    """Human-readable table of one run record."""
    lines = [
        "%-18s %10s %12s %12s %9s %9s" % (
            "workload", "config", "wall (s)", "events", "Mev/s", "speedup"
        )
    ]
    for name, entry in record["suite"].items():
        for engine in ("fast", "legacy"):
            if engine not in entry:
                continue
            row = entry[engine]
            speedup = ""
            if engine == "fast" and "speedup_events_per_sec" in entry:
                speedup = "%.2fx" % entry["speedup_events_per_sec"]
            lines.append("%-18s %10s %12.3f %12d %9.3f %9s" % (
                name, engine, row["wall_s"], row["events"],
                row["events_per_sec"] / 1e6, speedup,
            ))
        if "identical_stream" in entry:
            lines.append("%-18s %10s identical_stream=%s" % (
                "", "", entry["identical_stream"]))
    return lines
