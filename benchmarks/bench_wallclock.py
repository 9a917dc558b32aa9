"""Wall-clock perf bench: events/sec of the simulation kernel.

Not a paper figure — this measures the *harness itself* (see Becker et al.
on unmeasured emulation overhead corrupting reproduction claims).  It runs
the fig5 ping-pong, fig8a streaming, and fig8b 8-sink workloads plus the
engine-churn microbenchmark on both the fast and the legacy engine, prints
a comparison table, and appends the record to ``BENCH_wallclock.json`` so
the perf trajectory is tracked across PRs.  Both engines drive the same
stack, so the run fails unless every entry simulated an identical stream.

Run directly (not collected by the tier-1 suite)::

    PYTHONPATH=src python benchmarks/bench_wallclock.py           # smoke
    PYTHONPATH=src python benchmarks/bench_wallclock.py --full    # paper-scale
"""

import argparse
import sys

from repro.bench.perfbench import (
    check_ratchet,
    check_trajectory,
    run_suite,
    summary_lines,
    write_report,
)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Measure simulation-kernel events/sec on the paper workloads."
    )
    parser.add_argument("--full", action="store_true",
                        help="paper-scale message counts (slower)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", metavar="PATH", default="BENCH_wallclock.json",
                        help="perf-trajectory report to append to")
    parser.add_argument("--no-legacy", action="store_true",
                        help="skip the legacy-engine comparison runs")
    parser.add_argument("--min-churn-speedup", type=float, default=None,
                        help="exit non-zero if the engine-churn events/sec "
                             "speedup falls below this")
    parser.add_argument("--reps", type=int, default=3,
                        help="repetitions per measurement (best wall kept)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="shard the (workload, engine) measurements "
                             "across N worker processes; keep N at or below "
                             "the free core count so wall clocks stay clean")
    parser.add_argument("--trajectory", action="store_true",
                        help="no-op-hook check only: rerun fig8a tracing-off "
                             "and compare against the committed report")
    parser.add_argument("--wall-factor", type=float, default=3.0,
                        help="allowed wall-clock factor for --trajectory")
    parser.add_argument("--ratchet", action="store_true",
                        help="perf-ratchet check only: rerun engine_churn on "
                             "the fast engine and fail if events/sec falls "
                             "below the floor derived from the committed "
                             "report (INSANE_PERF_RATCHET_SKIP=1 skips)")
    args = parser.parse_args(argv)

    if args.trajectory:
        ok, lines = check_trajectory(path=args.json, reps=args.reps,
                                     wall_factor=args.wall_factor)
        for line in lines:
            print(line)
        return 0 if ok else 1

    if args.ratchet:
        ok, lines = check_ratchet(path=args.json, reps=args.reps)
        for line in lines:
            print(line)
        return 0 if ok else 1

    record = run_suite(full=args.full, seed=args.seed,
                       compare_legacy=not args.no_legacy, reps=args.reps,
                       workers=args.workers)
    for line in summary_lines(record):
        print(line)
    write_report(record, path=args.json)
    print("perf record appended to %s" % args.json)

    if not args.no_legacy:
        diverged = [
            name for name, entry in record["suite"].items()
            if not entry["identical_stream"]
        ]
        if diverged:
            print("ERROR: engines simulated different streams: %s" % diverged)
            return 1
        if args.min_churn_speedup is not None:
            speedup = record["suite"]["engine_churn"]["speedup_events_per_sec"]
            if speedup < args.min_churn_speedup:
                print("ERROR: engine-churn events/sec speedup %.2fx < "
                      "required %.2fx" % (speedup, args.min_churn_speedup))
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
