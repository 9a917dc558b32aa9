"""``insane bench profile``: cProfile a perf workload, aggregate by package.

Answers "where does packet time actually go?" without leaving the repo's
tooling: one suite workload (or the engine-churn microbenchmark) runs under
:mod:`cProfile`, and the report shows

* self-time totals aggregated by ``repro`` sub-package (plus an
  ``stdlib/other`` bucket), which localizes the hot layer at a glance, and
* the top-N functions by cumulative time, which names the hot call paths
  inside that layer.

Reading the output: ``cumtime`` on a function includes everything it calls,
so the engine's run loop dominating cumulative time is expected and
meaningless on its own — look at ``tottime`` (self time) to find where
cycles are actually spent, and at the package table for the layer split.
DESIGN.md §11 walks through a worked example.

Profiling costs roughly 2-4x wall-clock overhead and perturbs small
functions the most (per-call tracing overhead is flat), so treat the
numbers as a map, not a measurement: the authoritative events/sec figures
come from the unprofiled ``benchmarks/bench_wallclock.py`` runs.
"""

import cProfile
import os
import pstats

from repro.bench.perfbench import (
    QUICK_MESSAGES,
    QUICK_ROUNDS,
    SUITE,
    run_churn,
    run_workload,
)

#: workloads the profiler accepts: the wall-clock suite plus engine churn
PROFILE_WORKLOADS = tuple(SUITE) + ("engine_churn",)


def _package_of(path):
    """Map a source path to its aggregation bucket.

    Files under ``repro/`` bucket by sub-package (``repro.simnet``,
    ``repro.datapaths``, ...); everything else (stdlib, builtins) folds
    into ``stdlib/other``.
    """
    parts = path.replace(os.sep, "/").split("/")
    if "repro" in parts:
        index = parts.index("repro")
        if index + 1 < len(parts) - 1:
            return "repro." + parts[index + 1]
        return "repro"
    return "stdlib/other"


def profile_workload(workload="fig8a_streaming", engine="fast",
                     rounds=QUICK_ROUNDS, messages=QUICK_MESSAGES, seed=0):
    """Run ``workload`` under cProfile; returns ``(record, pstats.Stats)``."""
    if workload not in PROFILE_WORKLOADS:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (workload, ", ".join(PROFILE_WORKLOADS)))
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        if workload == "engine_churn":
            record = run_churn(engine, seed=seed)
        else:
            record = run_workload(workload, engine, rounds=rounds,
                                  messages=messages, seed=seed)
    finally:
        profiler.disable()
    return record, pstats.Stats(profiler)


def package_totals(stats):
    """Self-time seconds per package bucket, as a dict.

    Self time (``tottime``) attributes each sample to the function whose
    frame was actually executing, so the totals sum to (roughly) the
    profiled wall clock and expose the layer split directly.
    """
    totals = {}
    for (path, _line, _name), entry in stats.stats.items():
        tottime = entry[2]
        bucket = _package_of(path)
        totals[bucket] = totals.get(bucket, 0.0) + tottime
    return totals


def top_functions(stats, top=25):
    """The ``top`` functions by cumulative time, as row dicts."""
    rows = []
    for (path, line, name), entry in stats.stats.items():
        cc, nc, tottime, cumtime = entry[0], entry[1], entry[2], entry[3]
        rows.append({
            "function": "%s:%d:%s" % (os.path.basename(path), line, name),
            "package": _package_of(path),
            "ncalls": nc,
            "primitive_calls": cc,
            "tottime_s": tottime,
            "cumtime_s": cumtime,
        })
    rows.sort(key=lambda row: row["cumtime_s"], reverse=True)
    return rows[:top]


def report_lines(record, stats, top=25):
    """Human-readable profile report for one profiled run."""
    lines = [
        "profile: %s engine=%s  wall %.3fs  %d events  %.3f Mev/s "
        "(profiled — expect 2-4x slower than the bench numbers)"
        % (record["workload"], record["engine"], record["wall_s"],
           record["events"], record["events_per_sec"] / 1e6),
        "",
        "self-time by package:",
    ]
    totals = package_totals(stats)
    grand = sum(totals.values()) or 1.0
    for bucket, seconds in sorted(totals.items(), key=lambda kv: -kv[1]):
        lines.append("  %-22s %8.3fs %6.1f%%"
                     % (bucket, seconds, 100.0 * seconds / grand))
    lines += [
        "",
        "top %d by cumulative time:" % top,
        "  %9s %9s %10s  %s" % ("cumtime", "tottime", "ncalls", "function"),
    ]
    for row in top_functions(stats, top=top):
        calls = ("%d" % row["ncalls"]
                 if row["ncalls"] == row["primitive_calls"]
                 else "%d/%d" % (row["ncalls"], row["primitive_calls"]))
        lines.append("  %8.3fs %8.3fs %10s  %s [%s]"
                     % (row["cumtime_s"], row["tottime_s"], calls,
                        row["function"], row["package"]))
    return lines


def run_profile(workload="fig8a_streaming", engine="fast", top=25,
                rounds=QUICK_ROUNDS, messages=QUICK_MESSAGES, seed=0):
    """CLI entry: profile, print the report, return the machine record."""
    record, stats = profile_workload(workload, engine, rounds=rounds,
                                     messages=messages, seed=seed)
    for line in report_lines(record, stats, top=top):
        print(line)
    return {
        "workload": record["workload"],
        "engine": record["engine"],
        "wall_s": record["wall_s"],
        "events": record["events"],
        "events_per_sec": record["events_per_sec"],
        "package_self_time_s": package_totals(stats),
        "top_functions": top_functions(stats, top=top),
    }
