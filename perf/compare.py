"""Compare two result sets of the benchmark, pair by pair.

    python3 perf/compare.py A/ B/

``A`` and ``B`` are ``--out`` directories of ``run.py``: ``A`` holds the
runs of the parent commit, ``B`` those of the change, made with the same
settings and run length, ideally alternating which side ran first.  Runs
are paired in the order they were made.  For every declared metric and
workload, one row gives each side's median, quartiles and spread
(quartile distance over median), the share of ``A``'s median by which
``B``'s is worse, the share of pairs ``B`` won (ties count for neither
side) and a verdict:

``gain``
    ``B`` won at least nine tenths of the pairs and the medians differ
    by more than the distance between ``A``'s quartiles;
``regression``
    ``B``'s median is worse than ``A``'s by more than the metric's bound;
``unresolved``
    ``A``'s spread (quartile distance over median) exceeds the bound and
    not every run of ``B`` beat every run of ``A``: the runs cannot tell;
``ok``
    none of the above.

Per-layer metrics have no bound, so they read ``gain`` or ``-``.

``failed_frac`` and ``sim_drift`` read 0 on a correct run, so they are
not declared in ``BENCHMARK.json``, whose bounds are shares of a
nonzero median.  They get a row each with an absolute bound
(:data:`ABSOLUTE_BOUNDS`) on each side's worst run: a regression when
``B``'s worst exceeds ``A``'s by more than the bound, so any rise of
``failed_frac`` is one.  Runs of seeds without pinned references have no
``sim_drift`` and are left out of its row.

Exit status 1 when any row is a regression.
"""

import argparse
import json
import os
import statistics
import sys

import run

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)

#: share of pairs a change must win before a gain is claimed
WIN_SHARE = 0.9
#: correctness metrics and how much a change may raise its worst run
ABSOLUTE_BOUNDS = {"failed_frac": 0.0, "sim_drift": run.RESULT_RTOL}


def load_runs(directory):
    """``{(workload, metric): [value, ...]}`` in the order runs were made."""
    reports = []
    for name in os.listdir(directory):
        if name.endswith(".json"):
            with open(os.path.join(directory, name)) as handle:
                reports.append(json.load(handle))
    reports.sort(key=lambda report: report["meta"]["unix_time"])
    runs = {}
    for report in reports:
        data = report["data"]
        values = {metric: entry["value"]
                  for metric, entry in data["metrics"].items()}
        values.update((metric, data[metric]) for metric in ABSOLUTE_BOUNDS
                      if data.get(metric) is not None)
        for metric, value in values.items():
            runs.setdefault((data["workload"], metric), []).append(value)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def spread(values):
    """Quartile distance over the median (0 when the median is 0)."""
    q1, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def compare_pair(a, b, better, bound):
    """The row for one (metric, workload): stats of each side + verdict.

    ``worse`` is the share of ``A``'s median by which ``B``'s is worse
    (negative when better).
    """
    a_med, b_med = statistics.median(a), statistics.median(b)
    a_q1, a_q3 = quartiles(a)
    b_q1, b_q3 = quartiles(b)
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    won = sum(1 for x, y in pairs if sign * (y - x) > 0)
    share = won / len(pairs) if pairs else 0.0
    every_run_better = (min(b) > max(a) if better == "higher"
                        else max(b) < min(a))
    worse = -sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    if bound is not None and spread(a) > bound and not every_run_better:
        verdict = "unresolved"
    elif bound is not None and worse > bound:
        verdict = "regression"
    elif share >= WIN_SHARE and sign * (b_med - a_med) > a_q3 - a_q1:
        verdict = "gain"
    else:
        verdict = "ok" if bound is not None else "-"
    return {"a_median": a_med, "a_q1": a_q1, "a_q3": a_q3,
            "a_spread": spread(a), "b_median": b_med, "b_q1": b_q1,
            "b_q3": b_q3, "b_spread": spread(b), "worse": worse,
            "pairs": len(pairs), "won_share": share, "verdict": verdict}


def compare_absolute(a, b, better, bound):
    """The row for a correctness metric (lower is better): ``worse`` is
    how far ``B``'s worst run exceeds ``A``'s, and more than ``bound`` is
    a regression."""
    row = compare_pair(a, b, better, None)
    row["worse"] = max(b) - max(a)
    row["verdict"] = "regression" if row["worse"] > bound else "ok"
    return row


def compare(a_runs, b_runs, declaration):
    """One row per (metric, workload) present on both sides."""
    specs = [(spec, compare_pair) for kind in ("end_to_end", "per_layer")
             for spec in declaration[kind]]
    specs += [({"name": name, "unit": "fraction", "better": "lower",
                "bound": bound}, compare_absolute)
              for name, bound in ABSOLUTE_BOUNDS.items()]
    rows = []
    for spec, compare_row in specs:
        for workload in sorted({w for w, m in a_runs if m == spec["name"]}):
            key = (workload, spec["name"])
            if key not in b_runs:
                continue
            row = compare_row(a_runs[key], b_runs[key], spec["better"],
                              spec.get("bound"))
            row.update(metric=spec["name"], workload=workload,
                       unit=spec["unit"], bound=spec.get("bound"))
            rows.append(row)
    return rows


def format_rows(rows):
    lines = ["%-28s %-8s %27s %7s %27s %7s %7s %6s  %s" % (
        "metric", "workload", "A median [q1, q3]", "spread",
        "B median [q1, q3]", "spread", "B worse", "B won", "verdict")]
    for row in rows:
        lines.append("%-28s %-8s %27s %6.1f%% %27s %6.1f%% %6.1f%% %5.0f%%"
                     "  %s" % (
                         row["metric"], row["workload"],
                         "%.4g [%.4g, %.4g]" % (row["a_median"], row["a_q1"],
                                                row["a_q3"]),
                         100.0 * row["a_spread"],
                         "%.4g [%.4g, %.4g]" % (row["b_median"], row["b_q1"],
                                                row["b_q3"]),
                         100.0 * row["b_spread"], 100.0 * row["worse"],
                         100.0 * row["won_share"], row["verdict"]))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    parser.add_argument("a", help="result directory of the parent commit")
    parser.add_argument("b", help="result directory of the change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declaration = json.load(handle)
    rows = compare(load_runs(args.a), load_runs(args.b), declaration)
    for line in format_rows(rows):
        print(line)
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
