"""The ``insane bench`` command line: regenerate any paper table or figure.

Examples::

    insane bench fig7 --profile cloud
    insane bench fig8a --full
    insane bench all --quick
"""

import argparse
import sys

from repro.bench import runner
from repro.bench.ablations import (
    run_ablation_batching,
    run_ablation_qos,
    run_ablation_rx_threads,
    run_ablation_threads,
    run_ablation_tsn,
)
from repro.bench.faults import run_faults
from repro.cli.common import add_execution_options, make_cache
from repro.core.runtime import normalize_datapath

EXPERIMENTS = {
    "table1": lambda args: runner.run_table1(),
    "table3": lambda args: runner.run_table3(),
    "table4": lambda args: runner.run_table4(),
    "fig5": lambda args: runner.run_fig5(
        profile=args.profile, rounds=args.rounds, seed=args.seed,
        workers=args.workers, cache=args.cache,
    ),
    "fig6": lambda args: runner.run_fig6(rounds=args.rounds, seed=args.seed),
    "fig7": lambda args: runner.run_fig7(
        profile=args.profile, rounds=args.rounds, seed=args.seed,
        workers=args.workers, cache=args.cache,
    ),
    "fig8a": lambda args: runner.run_fig8a(
        messages=args.messages, seed=args.seed,
        workers=args.workers, cache=args.cache,
    ),
    "fig8b": lambda args: runner.run_fig8b(
        messages=args.messages, seed=args.seed,
        workers=args.workers, cache=args.cache,
    ),
    "fig9a": lambda args: runner.run_fig9a(rounds=args.rounds, seed=args.seed),
    "fig9b": lambda args: runner.run_fig9b(messages=args.messages, seed=args.seed),
    "fig11": lambda args: runner.run_fig11(quick=args.quick, seed=args.seed),
    "ablation-tsn": lambda args: run_ablation_tsn(seed=args.seed),
    "ablation-threads": lambda args: run_ablation_threads(seed=args.seed),
    "ablation-batching": lambda args: run_ablation_batching(
        messages=args.messages, seed=args.seed
    ),
    "ablation-qos": lambda args: run_ablation_qos(seed=args.seed),
    "ablation-rx-threads": lambda args: run_ablation_rx_threads(
        messages=args.messages, seed=args.seed
    ),
    "faults": lambda args: run_faults(
        seed=args.seed, messages=args.messages,
        workers=args.workers, cache=args.cache,
    ),
    "validate": lambda args: run_validate(seed=args.seed, quick=args.quick),
    "breakdown": lambda args: run_breakdown_cmd(args),
    "capacity": lambda args: run_capacity_cmd(args),
    "city": lambda args: run_city_cmd(args),
    "fanout": lambda args: run_fanout_cmd(args),
}

#: meta-tools excluded from ``insane bench all`` (they plan capacity and
#: scale, not the paper)
NOT_IN_ALL = ("capacity", "city", "fanout")


def run_fanout_cmd(args):
    """Million-subscriber hybrid fan-out; see :mod:`repro.bench.fanout`.

    Runs the hybrid-fidelity fan-out (hot packet-accurate cohort + fluid
    cold tail) and, unless ``--no-differential``, the fluid-vs-DES
    differential on sampled sub-scenarios so the printed result and the
    ``bench.fanout`` RunReport carry the measured error bound.
    """
    from repro.bench.fanout import format_fanout, run_fanout_bench

    if args.subscribers < 1:
        raise SystemExit("fanout: --subscribers must be >= 1")
    if not 0.0 <= args.hot_fraction <= 1.0:
        raise SystemExit("fanout: --hot-fraction must be in [0, 1]")
    try:
        datapath = (normalize_datapath(args.datapath) if args.datapath
                    else None)
    except ValueError as exc:
        raise SystemExit("fanout: %s" % exc)
    report, metrics, diff = run_fanout_bench(
        subscribers=args.subscribers,
        messages=args.fanout_messages,
        hot_fraction=args.hot_fraction,
        promote_threshold_hz=args.promote_threshold,
        epsilon=args.error_bound,
        seed=args.seed, profile=args.profile, datapath=datapath,
        differential=not args.no_differential,
    )
    print(format_fanout(report))
    print("  report digest %s" % report.digest())
    if args.report:
        from repro.report import write_reports

        write_reports(args.report, [report])
        print("  fanout report written to %s" % args.report)
    if diff is not None and not diff["ok"]:
        raise SystemExit("fanout: fluid tier exceeded the declared error "
                         "bound (epsilon %.2f)" % diff["epsilon"])
    return report.to_dict()


def _parse_counts(text, command, noun):
    """A ``--<noun>s`` CSV -> tuple of positive ints, loudly."""
    try:
        counts = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise SystemExit("%s: --%ss must be a comma-separated list of "
                         "integers, got %r" % (command, noun, text))
    if not counts or any(count < 1 for count in counts):
        raise SystemExit("%s: --%ss needs at least one positive %s count, "
                         "got %r" % (command, noun, noun, text))
    return counts


def run_capacity_cmd(args):
    """Closed-loop capacity sweep; see :mod:`repro.loadgen.capacity`.

    Runs the client-count grid on one pinned datapath through the sweep
    executor, prints the per-N table with the latency-throughput knee and
    the fitted capacity model, and (with ``--report``) writes the
    standalone ``bench.capacity`` :class:`~repro.report.RunReport`.
    """
    from repro.loadgen.capacity import format_capacity, run_capacity

    clients = (_parse_counts(args.clients, "capacity", "client")
               if args.clients else None)
    try:
        report, _ = run_capacity(
            args.datapath or "udp",
            **({"clients": clients} if clients else {}),
            profile=args.profile, workers=args.workers, cache=args.cache,
            seed=args.seed, think_ns=args.think * 1000.0,
            think_dist=args.think_dist, epsilon=args.epsilon,
            outstanding=args.outstanding,
        )
    except ValueError as exc:
        raise SystemExit("capacity: %s" % exc)
    print(format_capacity(report))
    print("  report digest %s" % report.digest())
    if args.report:
        from repro.report import write_reports

        write_reports(args.report, [report])
        print("  capacity report written to %s" % args.report)
    return report.to_dict()


def run_city_cmd(args):
    """City-scale generated-topology sweep; see :mod:`repro.bench.city`.

    Runs one generated city at each requested partition count through the
    sweep executor, prints the partition table (digests must be
    bit-identical across counts or the bench refuses to report), and
    (with ``--report``) writes the ``bench.city``
    :class:`~repro.report.RunReport`.
    """
    from repro.bench.city import format_city, run_city_bench
    from repro.core.errors import TopologyError

    partitions = (_parse_counts(args.partitions, "city", "partition")
                  if args.partitions else (1, 2, 4))
    try:
        report, _sweep, rows = run_city_bench(
            args.topology, partitions=partitions,
            datapath=args.datapath or "udp",
            nodes=args.nodes, workers=args.workers, cache=args.cache,
            seed=args.seed,
        )
    except (TopologyError, ValueError) as exc:
        raise SystemExit("city: %s" % exc)
    print(format_city(rows))
    print("  report digest %s" % report.digest())
    if args.report:
        from repro.report import write_reports

        write_reports(args.report, [report])
        print("  city report written to %s" % args.report)
    return {row["partitions"]: row for row in rows}


def run_breakdown_cmd(args):
    """Latency breakdown; with ``--trace``, per-datapath lifecycle spans.

    The plain form reproduces the Fig. 6 component split for the default
    mapping.  ``--trace`` instead pins each datapath in turn, collects
    span-based lifecycle traces, prints the per-stage critical-path table,
    and (with ``--trace-out``) writes a Chrome-trace JSON loadable in
    ``chrome://tracing`` or Perfetto.
    """
    from repro.bench.breakdown import (
        print_traced_breakdown,
        run_breakdown,
        run_traced_breakdown,
    )

    rounds = min(args.rounds, 500) if args.rounds else 300
    if not args.trace:
        breakdown = run_breakdown(profile=args.profile, messages=rounds, seed=args.seed)
        for component, mean_us in breakdown.items():
            print("  %-16s %8.2f us" % (component, mean_us))
        print("  %-16s %8.2f us" % ("total", sum(breakdown.values())))
        return breakdown
    tracers = run_traced_breakdown(
        profile=args.profile, messages=rounds, seed=args.seed
    )
    report = print_traced_breakdown(tracers)
    if args.trace_out:
        from repro.obs import write_chrome_trace

        write_chrome_trace(args.trace_out, tracers)
        print("Chrome trace written to %s (load in Perfetto / chrome://tracing)"
              % args.trace_out)
    return report


def run_validate(seed=0, quick=True):
    """Differential oracle + golden-corpus check, bench-style.

    The full ``insane validate`` CLI has more knobs; this entry point runs
    the two headline checks, the oracle through the same sweep driver as
    ``insane validate differential``, so ``insane bench all`` also
    exercises the validation subsystem.
    """
    from repro.validate import check_corpus, parallel_differential

    n = 10 if quick else 50
    checked, diverged, _sweep = parallel_differential(seed=seed, n=n)
    reports = [payload["report"] for payload in diverged]
    print("validate: differential oracle %d/%d workload(s), %d divergence(s)"
          % (checked, n, len(reports)))
    for report in reports:
        print(report)
    problems = check_corpus()
    print("validate: golden corpus %s"
          % ("holds" if not problems else "FAILED"))
    for problem in problems:
        print("  - %s" % problem)
    return {
        "differential_checked": checked,
        "divergences": reports,
        "golden_problems": list(problems),
    }


def _chart_fig7(results, args):
    from repro.bench.charts import hbar_chart
    from repro.bench.harness import SYSTEMS
    from repro.bench.runner import PAPER_FIG7

    labels = list(SYSTEMS)
    values = [results[s].mean / 1000.0 for s in labels]
    reference = {
        s: v for s, v in PAPER_FIG7[args.profile].items() if v is not None
    }
    return hbar_chart(
        "Fig. 7 (%s): average RTT, 64B (us)" % args.profile,
        labels, values, unit=" us", reference=reference,
    )


def _chart_fig8a(results, args):
    from repro.bench.charts import grouped_series_chart
    from repro.bench.runner import FIG8A_SIZES, FIG8A_SYSTEMS

    series = {
        system: [results[(system, size)] for size in FIG8A_SIZES]
        for system in FIG8A_SYSTEMS
    }
    return grouped_series_chart(
        "Fig. 8a: goodput vs payload (Gbps)",
        ["%dB" % size for size in FIG8A_SIZES],
        series, unit=" Gbps",
    )


def _chart_fig8b(results, args):
    from repro.bench.charts import hbar_chart
    from repro.bench.runner import FIG8B_SINKS, PAPER_FIG8B

    labels = ["%d sinks" % s for s in FIG8B_SINKS]
    values = [results[s] for s in FIG8B_SINKS]
    reference = {
        "%d sinks" % s: v for s, v in PAPER_FIG8B.items()
    }
    return hbar_chart("Fig. 8b: per-sink goodput, 1KB (Gbps)",
                      labels, values, unit=" Gbps", reference=reference)


def _chart_fig9a(results, args):
    from repro.bench.charts import grouped_series_chart
    from repro.bench.mom import MOM_SYSTEMS
    from repro.bench.runner import FIG9_SIZES

    series = {
        system: [results[(system, size)].mean / 1000.0 for size in FIG9_SIZES]
        for system in MOM_SYSTEMS
    }
    return grouped_series_chart(
        "Fig. 9a: MoM average RTT (us)",
        ["%dB" % size for size in FIG9_SIZES],
        series, unit=" us",
    )


def _chart_fig11(results, args):
    from repro.bench.charts import grouped_series_chart
    from repro.bench.images import RESOLUTIONS
    from repro.bench.streaming import STREAMING_SYSTEMS

    series = {
        system: [results[(system, res)][0] for res in RESOLUTIONS]
        for system in STREAMING_SYSTEMS
    }
    return grouped_series_chart(
        "Fig. 11a: streaming FPS", list(RESOLUTIONS), series, unit=" fps",
    )


CHART_RENDERERS = {
    "fig7": _chart_fig7,
    "fig8a": _chart_fig8a,
    "fig8b": _chart_fig8b,
    "fig9a": _chart_fig9a,
    "fig11": _chart_fig11,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="insane bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which experiment to run ('all' runs everything)",
    )
    parser.add_argument("--profile", choices=("local", "cloud"), default="local")
    parser.add_argument("--rounds", type=int, default=None,
                        help="ping-pong rounds per data point")
    parser.add_argument("--messages", type=int, default=None,
                        help="messages per throughput data point")
    add_execution_options(
        parser,
        workers_help="shard sweep cells across N worker processes "
                     "(fig5/fig7/fig8a/fig8b/faults; results are "
                     "bit-identical at any worker count)",
        json_help="append machine-readable results to a JSON file",
    )
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--quick", action="store_true",
                       help="small sample counts (default)")
    group.add_argument("--full", action="store_true",
                       help="larger sample counts (slower, tighter stats)")
    parser.add_argument("--chart", action="store_true",
                        help="also render terminal bar charts where available")
    parser.add_argument("--trace", action="store_true",
                        help="breakdown only: collect lifecycle spans per datapath")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="breakdown --trace: write a Chrome-trace JSON here")
    parser.add_argument("--datapath", metavar="NAME", default=None,
                        help="capacity/city/fanout: datapath to pin "
                             "(udp or kernel_udp, xdp, dpdk, rdma; "
                             "default udp for capacity and city, "
                             "unpinned for fanout)")
    parser.add_argument("--clients", metavar="N,N,...", default=None,
                        help="capacity only: comma-separated client counts "
                             "to sweep (default 1,2,4,8,16)")
    parser.add_argument("--think", type=float, default=10.0, metavar="US",
                        help="capacity only: mean client think time in "
                             "microseconds")
    parser.add_argument("--think-dist", choices=("fixed", "exponential"),
                        default="exponential",
                        help="capacity only: think-time distribution")
    parser.add_argument("--epsilon", type=float, default=0.05,
                        help="capacity only: interactive-law residual "
                             "bound per accepted window")
    parser.add_argument("--outstanding", type=int, default=1, metavar="W",
                        help="capacity only: per-client outstanding-"
                             "request window")
    parser.add_argument("--report", metavar="PATH", default=None,
                        help="capacity/city only: write the standalone "
                             "RunReport to this JSON file")
    parser.add_argument("--topology", metavar="NAME", default="smoke64",
                        help="city only: generated-topology preset "
                             "(smoke64, city256, metro1k)")
    parser.add_argument("--partitions", metavar="N,N,...", default=None,
                        help="city only: comma-separated partition counts "
                             "to sweep (default 1,2,4)")
    parser.add_argument("--nodes", type=int, default=None, metavar="N",
                        help="city only: override the preset's edge-host "
                             "count")
    parser.add_argument("--subscribers", type=int, default=1_000_000,
                        metavar="N",
                        help="fanout only: subscriber population size")
    parser.add_argument("--hot-fraction", type=float, default=1e-4,
                        metavar="F",
                        help="fanout only: fraction kept packet-accurate "
                             "(the rest rides the fluid tier)")
    parser.add_argument("--promote-threshold", type=float, default=None,
                        metavar="HZ",
                        help="fanout only: message rate above which cold "
                             "subscribers promote to packet-accurate DES")
    parser.add_argument("--error-bound", type=float, default=0.15,
                        metavar="EPS",
                        help="fanout only: declared relative p50/p99 error "
                             "bound for the DES-vs-hybrid differential")
    parser.add_argument("--no-differential", action="store_true",
                        help="fanout only: skip the DES-vs-hybrid "
                             "differential")
    args = parser.parse_args(argv)
    # fanout paces per the envelope, so its natural message count is far
    # below the throughput default; honor an explicit --messages only
    args.fanout_messages = args.messages if args.messages is not None else 64

    args.cache = make_cache(args)
    args.quick = not args.full
    if args.rounds is None:
        args.rounds = 2000 if args.full else 500
    if args.messages is None:
        args.messages = 50000 if args.full else 10000

    if args.experiment == "all":
        names = [n for n in sorted(EXPERIMENTS) if n not in NOT_IN_ALL]
    else:
        names = [args.experiment]
    collected = {}
    for name in names:
        print()
        results = EXPERIMENTS[name](args)
        collected[name] = results
        if args.chart and name in CHART_RENDERERS:
            print()
            print(CHART_RENDERERS[name](results, args))
        print()
    if args.json:
        from repro.bench.report import write_json_report

        write_json_report(args.json, collected, profile=args.profile, seed=args.seed)
        print("JSON results appended to %s" % args.json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
