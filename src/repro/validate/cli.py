"""``insane validate``: the validation subsystem's command line.

Subcommands::

    insane validate differential --seed 0 --n 50 [--perturb insane_ipc=1.01]
                                 [--workers 4]
    insane validate properties   --seed 0 --n 25
    insane validate fuzz         --seed 0 --n 25 [--differential] [--workers 4]
    insane validate golden       [--regen [--force]] [--path FILE]
    insane validate parallel     --workers 2 [--n 4] [--cache-dir DIR]
    insane validate partitioned  [--topology smoke64] [--partitions 2,4]
                                 [--transport process|inline] [--json PATH]
    insane validate repro        --seed 17 [--json SPEC_JSON]
    insane validate fanout       [--subscribers 64,256,1024] [--n 32]
                                 [--epsilon 0.15] [--hot-fraction 0.05]
                                 [--json PATH]

Also reachable as ``python -m repro.validate`` and as the ``validate``
experiment of ``insane bench``.  Exit status is 0 iff every check passed.
"""

import argparse
import sys


def _cmd_differential(args):
    if args.workers > 1 or args.json:
        from repro.validate.parallel import (
            differential_report,
            parallel_differential,
        )

        checked, diverged, sweep = parallel_differential(
            seed=args.seed, n=args.n, workers=args.workers,
            perturb=args.perturb,
            progress=print if args.verbose else None,
        )
        for payload in diverged:
            print(payload["report"])
        print(
            "differential: %d/%d workload(s) checked, %d divergence(s) "
            "(%d workers)" % (checked, args.n, len(diverged), args.workers)
        )
        if args.json:
            from repro.report import write_reports

            write_reports(args.json, [differential_report(sweep)])
        return 1 if diverged else 0
    from repro.validate.differential import run_differential

    checked, divergences = run_differential(
        seed=args.seed, n=args.n, perturb=args.perturb,
        stop_on_first=not args.keep_going,
        progress=print if args.verbose else None,
    )
    for divergence in divergences:
        print(divergence.report())
    print(
        "differential: %d/%d workload(s) checked, %d divergence(s)"
        % (checked, args.n, len(divergences))
    )
    return 1 if divergences else 0


def _cmd_properties(args):
    from repro.validate.properties import property_report
    from repro.validate.workloads import random_spec, run_spec

    bad = 0
    for index in range(args.n):
        spec = random_spec(args.seed + index)
        report = property_report(run_spec(spec, engine=args.engine))
        if args.verbose or not report["ok"]:
            print(
                "seed=%d %s: %s"
                % (spec.seed, spec.kind, "ok" if report["ok"] else "FAILED")
            )
        for violation in report["violations"]:
            print("  - %s" % violation)
        bad += 0 if report["ok"] else 1
    print("properties: %d/%d run(s) clean" % (args.n - bad, args.n))
    return 1 if bad else 0


def _cmd_fuzz(args):
    if args.workers > 1 or args.json:
        from repro.validate.parallel import (
            format_fuzz_failure,
            fuzz_report,
            parallel_fuzz,
        )

        checked, failures, sweep = parallel_fuzz(
            seed=args.seed, n=args.n, workers=args.workers,
            differential=args.differential, do_shrink=not args.no_shrink,
            progress=print if args.verbose else None,
        )
        for payload in failures:
            print(format_fuzz_failure(payload))
        print(
            "fuzz: %d spec(s) checked, %d failure(s) (%d workers)"
            % (checked, len(failures), args.workers)
        )
        if args.json:
            from repro.report import write_reports

            write_reports(args.json, [fuzz_report(sweep)])
        return 1 if failures else 0
    from repro.validate.fuzz import fuzz

    checked, failures = fuzz(
        seed=args.seed, n=args.n, differential=args.differential,
        do_shrink=not args.no_shrink,
        progress=print if args.verbose else None,
    )
    for failure in failures:
        print(failure.report())
    print(
        "fuzz: %d spec(s) checked, %d failure(s)" % (checked, len(failures))
    )
    return 1 if failures else 0


def _cmd_golden(args):
    from repro.validate.golden import check_corpus, regenerate_corpus

    if args.regen:
        try:
            path = regenerate_corpus(path=args.path, force=args.force)
        except FileExistsError as exc:
            print(exc)
            return 1
        print("golden corpus written to %s" % path)
        return 0
    problems = check_corpus(path=args.path)
    for problem in problems:
        print("  - %s" % problem)
    print("golden: %s" % ("corpus holds" if not problems
                          else "%d mismatch(es)" % len(problems)))
    return 1 if problems else 0


def _cmd_parallel(args):
    """The sweep executor's own check: serial == parallel, cache hits.

    Runs a small mixed cell set three ways — serially, in parallel
    against an empty cache, and in parallel again over the warm cache —
    and requires (a) identical merged digests everywhere and (b) a 100%
    hit rate on the warm pass.  This is the CI parallel-smoke entrypoint.
    """
    import shutil
    import tempfile

    from repro.parallel import ResultCache, SweepExecutor
    from repro.validate.parallel import compare_sweeps, equivalence_cells

    cells = equivalence_cells(seed=args.seed, n=args.n)
    serial = SweepExecutor(workers=1).run(cells)

    cache_root = args.cache_dir or tempfile.mkdtemp(prefix="insane-cache-")
    problems = []
    try:
        cold = SweepExecutor(
            workers=args.workers, cache=ResultCache(root=cache_root)
        ).run(cells)
        warm = SweepExecutor(
            workers=args.workers, cache=ResultCache(root=cache_root)
        ).run(cells)
    finally:
        if args.cache_dir is None:
            shutil.rmtree(cache_root, ignore_errors=True)

    problems += compare_sweeps(serial, cold)
    problems += compare_sweeps(serial, warm)
    if warm.hit_rate() < 1.0:
        problems.append(
            "warm pass hit rate %.0f%% (expected 100%%): %d of %d cells "
            "re-executed"
            % (warm.hit_rate() * 100.0, warm.executed, len(warm.results))
        )
    for problem in problems:
        print("  - %s" % problem)
    print(
        "parallel: %d cell(s), serial vs %d-worker digest %s, "
        "warm-cache hit rate %.0f%%"
        % (len(cells), args.workers,
           "identical" if serial.merged_digest() == cold.merged_digest()
           == warm.merged_digest() else "DIFFERS",
           warm.hit_rate() * 100.0)
    )
    return 1 if problems else 0


def _cmd_partitioned(args):
    """Serial vs space-partitioned city runs, digest-for-digest.

    Runs a generated city once serially, then once per requested
    partition count through :mod:`repro.dist`, and requires every merged
    digest to equal the serial one bit for bit.  This is the CI
    partition-smoke entrypoint.
    """
    from repro.dist.sync import check_partition_equivalence

    counts = tuple(int(part) for part in args.partitions.split(","))
    problems, details = check_partition_equivalence(
        args.topology, partitions=counts, transport=args.transport
    )
    serial = details["serial"]
    print(
        "serial:          digest %s  delivered %d  events %d"
        % (serial["digest"][:16], serial["delivered"], serial["events"])
    )
    for run in details["partitioned"]:
        print(
            "partitioned x%d: digest %s  (%s)  %s"
            % (run["partitions"], run["digest"][:16], run["transport"],
               "== serial" if run["digest"] == serial["digest"]
               else "DIVERGED")
        )
    for problem in problems:
        print("  - %s" % problem)
    if args.json:
        from repro.report import RunReport, write_reports

        write_reports(args.json, [RunReport(
            kind="validate.partitioned",
            data={
                "ok": not problems,
                "problems": problems,
                "serial": serial,
                "partitioned": details["partitioned"],
            },
            meta={"topology": args.topology, "transport": args.transport},
        )])
    print(
        "partitioned: %s"
        % ("every digest identical to serial" if not problems
           else "%d problem(s)" % len(problems))
    )
    return 1 if problems else 0


def _cmd_repro(args):
    from repro.validate.differential import compare_spec
    from repro.validate.properties import property_report
    from repro.validate.workloads import WorkloadSpec, random_spec, run_spec

    if args.json:
        spec = WorkloadSpec.from_json(args.json)
    else:
        spec = random_spec(args.seed)
    print("spec: %s" % spec.describe())
    print("json: %s" % spec.to_json())
    divergence, fast, _legacy = compare_spec(spec)
    report = property_report(fast)
    print(
        "fast run: %d canonical events, %d emitted, %d delivered, digest %s"
        % (len(fast.trace), report["emitted"], report["delivered"],
           fast.trace.digest())
    )
    failed = False
    if divergence is not None:
        print(divergence.report())
        failed = True
    if not report["ok"]:
        for violation in report["violations"]:
            print("  - %s" % violation)
        failed = True
    if not failed:
        print("repro: engines agree and every invariant holds")
    return 1 if failed else 0


def _cmd_fanout(args):
    """Fluid-tier differential: hybrid fan-out vs full DES, ε-bounded."""
    from repro.validate.fanout import (
        format_fanout_differential,
        run_fanout_differential,
    )

    counts = tuple(int(part) for part in args.subscribers.split(","))
    result = run_fanout_differential(
        subscribers=counts, messages=args.n, size=args.size,
        hot_fraction=args.hot_fraction, epsilon=args.epsilon,
        seed=args.seed, profile=args.profile, datapath=args.datapath,
    )
    print(format_fanout_differential(result))
    if args.json:
        from repro.report import RunReport, write_reports

        write_reports(args.json, [RunReport(
            kind="validate.fanout", data=result,
            meta={"subscribers": list(counts)},
        )])
    return 0 if result["ok"] else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="insane validate",
        description="Differential validation and property testing for the "
                    "INSANE reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    differential = sub.add_parser(
        "differential", help="fast vs legacy engine, bit for bit"
    )
    differential.add_argument("--seed", type=int, default=0)
    differential.add_argument("--n", type=int, default=50)
    differential.add_argument(
        "--perturb", default=None, metavar="STAGE=FACTOR",
        help="scale one cost-model stage on the fast side only "
             "(self-test: the oracle must report a divergence)",
    )
    differential.add_argument("--keep-going", action="store_true")
    differential.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard specs across N worker processes (checks all --n specs; "
             "implies --keep-going)",
    )
    differential.add_argument("--json", metavar="PATH", default=None,
                              help="append a validate.differential RunReport "
                                   "to this JSON file")
    differential.add_argument("-v", "--verbose", action="store_true")
    differential.set_defaults(func=_cmd_differential)

    properties = sub.add_parser(
        "properties", help="invariant checks over random workloads"
    )
    properties.add_argument("--seed", type=int, default=0)
    properties.add_argument("--n", type=int, default=25)
    properties.add_argument("--engine", choices=("fast", "legacy"),
                            default="fast")
    properties.add_argument("-v", "--verbose", action="store_true")
    properties.set_defaults(func=_cmd_properties)

    fuzz = sub.add_parser(
        "fuzz", help="property fuzzing with failure shrinking"
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--n", type=int, default=25)
    fuzz.add_argument("--differential", action="store_true",
                      help="also cross-check both engines per spec")
    fuzz.add_argument("--no-shrink", action="store_true")
    fuzz.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="shard fuzzed specs across N worker processes",
    )
    fuzz.add_argument("--json", metavar="PATH", default=None,
                      help="append a validate.fuzz RunReport to this "
                           "JSON file")
    fuzz.add_argument("-v", "--verbose", action="store_true")
    fuzz.set_defaults(func=_cmd_fuzz)

    golden = sub.add_parser(
        "golden", help="check or regenerate the pinned golden corpus"
    )
    golden.add_argument("--regen", action="store_true")
    golden.add_argument("--force", action="store_true")
    golden.add_argument("--path", default=None)
    golden.set_defaults(func=_cmd_golden)

    parallel = sub.add_parser(
        "parallel",
        help="check the sweep executor: serial==parallel digests, cache hits",
    )
    parallel.add_argument("--seed", type=int, default=0)
    parallel.add_argument("--n", type=int, default=4,
                          help="fuzz cells in the equivalence set")
    parallel.add_argument("--workers", type=int, default=2, metavar="N")
    parallel.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="persist the cache here (default: a "
                               "throwaway temp dir)")
    parallel.set_defaults(func=_cmd_parallel)

    partitioned = sub.add_parser(
        "partitioned",
        help="check serial == space-partitioned city digests, bit for bit",
    )
    partitioned.add_argument("--topology", default="smoke64",
                             help="city preset name (see repro.hw.generate)")
    partitioned.add_argument("--partitions", default="2,4",
                             metavar="N[,N...]",
                             help="comma-separated partition counts to check")
    partitioned.add_argument("--transport", choices=("process", "inline"),
                             default="process",
                             help="worker processes (default) or the "
                                  "in-process scheduler")
    partitioned.add_argument("--json", metavar="PATH", default=None,
                             help="append a validate.partitioned RunReport "
                                  "to this JSON file")
    partitioned.set_defaults(func=_cmd_partitioned)

    repro = sub.add_parser(
        "repro", help="re-run one workload spec and report everything"
    )
    repro.add_argument("--seed", type=int, default=0)
    repro.add_argument("--json", default=None,
                       help="a WorkloadSpec JSON (from a shrunken failure)")
    repro.set_defaults(func=_cmd_repro)

    fanout = sub.add_parser(
        "fanout",
        help="bound the fluid tier's error against full DES on sampled "
             "fan-out sub-scenarios",
    )
    fanout.add_argument("--subscribers", default="64,256,1024",
                        metavar="N[,N...]",
                        help="comma-separated subscriber counts to sample")
    fanout.add_argument("--n", type=int, default=32,
                        help="messages per sampled run")
    fanout.add_argument("--size", type=int, default=512)
    fanout.add_argument("--epsilon", type=float, default=0.15,
                        help="relative p50/p99 error bound")
    fanout.add_argument("--hot-fraction", type=float, default=0.05)
    fanout.add_argument("--seed", type=int, default=0)
    fanout.add_argument("--profile", default="local")
    fanout.add_argument("--datapath", default=None)
    fanout.add_argument("--json", metavar="PATH", default=None,
                        help="append a validate.fanout RunReport to this "
                             "JSON file")
    fanout.set_defaults(func=_cmd_fanout)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
