"""The repository benchmark: five workloads, end-to-end and per-layer metrics.

    python3 perf/run.py [--seed N] [--trace [0|1]] [--out DIR]
                        [--workload NAME] [--seconds S] [--quick Q]

Runs all five workloads, or the one ``--workload`` names, each as a
series of repetitions ("reps"), each in a fresh process started only
after the previous one ended, until ``--seconds`` (``run_seconds`` in
``BENCHMARK.json`` unless given) have passed and at least three reps,
and one per pass of the workload's inputs, are done.  ``--workload`` and
``--seconds`` are there because the ``command`` of ``BENCHMARK.json`` is
called as ``--workload W --seed N --seconds S --trace 0|1``.  Every rep
builds its inputs from ``--seed``.  The end-to-end metrics declared in
``BENCHMARK.json`` are taken over the reps, with every time in
calibrated seconds (see ``calibration.py``).  ``--trace`` starts with
one profiled rep, whose time counts towards ``--seconds``, needs only
one timed rep per pass, and reports the declared per-layer metrics
instead.  ``--quick Q`` divides every input size by ``Q`` and runs only
the fewest reps that give every metric: it is for the self-tests.

Output: one ``workload metric value unit`` line per metric, the run
written as a ``repro.report.RunReport`` under ``--out``, and as the last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Exit status: 0 when every output checked out, 1 when an operation
failed or an output was wrong, 2 when there is no program to measure.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import calibration
import workloads

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
REP_SCRIPT = os.path.join(PERF_DIR, "rep.py")
REFERENCES = os.path.join(PERF_DIR, "references.json")

#: timed reps per untraced run, at least, however long they take
MIN_REPS = 3
#: a rep is killed after this many times its workload's expected wall
TIMEOUT_FACTOR = 10
#: the profiled rep runs ~5x slower; it is killed after this long
TRACED_TIMEOUT_S = 100.0
#: the largest relative deviation of a simulated headline value from its
#: pinned reference that still counts as correct (perfbench's RESULT_RTOL)
RESULT_RTOL = 0.05
EXIT_FAILED = 1
EXIT_NO_PROGRAM = 2
#: rep.py's status when ``repro`` cannot be imported
REP_EXIT_NO_PROGRAM = 3


class NoProgramError(RuntimeError):
    """The program under test is missing: nothing can be measured."""


def load_declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_references():
    with open(REFERENCES) as handle:
        return json.load(handle)


# -- noise model ----------------------------------------------------------


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def noise_meta():
    import platform

    return {
        "calibration_s": calibration.sample(20),
        "calibration_reference_s": calibration.REFERENCE_S,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "unix_time": time.time(),
    }


# -- one rep ----------------------------------------------------------------


def run_rep_subprocess(name, seed, quick, label, pass_index=0,
                       profile_path=None):
    """Run one rep in a fresh process; returns its result dict.

    A rep that crashes, prints no result or outlives its timeout is
    killed with its whole process group and comes back as a failure
    record charged with the workload's nominal ops.
    """
    workload = workloads.WORKLOADS[name]
    timeout = (TRACED_TIMEOUT_S if profile_path
               else TIMEOUT_FACTOR * workload.expected_wall_s)
    cmd = [sys.executable, REP_SCRIPT, name, "--seed", str(seed),
           "--pass", str(pass_index), "--quick", str(quick)]
    if profile_path:
        cmd += ["--profile", profile_path]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        return failure_record(
            workload, "%s rep %s seed %d timed out after %.0f s"
            % (name, label, seed, timeout))
    if proc.returncode == REP_EXIT_NO_PROGRAM:
        raise NoProgramError(err.strip())
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return failure_record(
            workload, "%s rep %s seed %d exited %d: %s"
            % (name, label, seed, proc.returncode,
               err.strip().splitlines()[-1:] or "no output"))
    return json.loads(lines[-1])


def _kill_group(proc):
    import signal

    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def failure_record(workload, message):
    return {"error": message, "attempted": workload.nominal_ops,
            "failed": workload.nominal_ops, "ops": 0, "problems": [message],
            "cells": [], "headline": None}


# -- one workload -----------------------------------------------------------


def measure(name, seed, seconds, trace=False, quick=1, out=None):
    """Run reps of ``name`` for ``seconds`` (the traced rep first).

    Timed rep ``i`` runs pass ``i`` modulo the workload's passes, and
    every pass runs at least once.  Returns ``(reps, traced)``: the timed
    reps' results and the traced rep's (None unless ``trace``).  Reps
    stop at the first one that crashed or timed out.
    """
    passes = workloads.WORKLOADS[name].passes
    min_reps = max(passes, 1 if trace else MIN_REPS)
    start = time.perf_counter()
    traced = None
    if trace:
        profile_path = os.devnull
        if out is not None:
            os.makedirs(out, exist_ok=True)
            profile_path = os.path.join(
                out, "%s-seed%d-%d.pstats" % (name, seed, os.getpid()))
        traced = run_rep_subprocess(name, seed, quick, "traced",
                                    profile_path=profile_path)
        if "error" in traced:
            return [], traced
    reps = []
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        index = len(reps)
        reps.append(run_rep_subprocess(name, seed, quick, index,
                                       pass_index=index % passes))
        if "error" in reps[-1]:
            break
    return reps, traced


def median_of(values):
    return statistics.median(values) if values else 0.0


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with at least ``pct``
    percent of ``values`` at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct * len(ordered) / 100.0)) - 1]


def rep_rate(rep, datapath=None):
    cells = [cell for cell in rep["cells"]
             if datapath is None or cell["datapath"] == datapath]
    wall = sum(cell["wall_s"] for cell in cells)
    return sum(cell["ops"] for cell in cells) / wall if wall else 0.0


def sim_drift(headline, reference):
    """Largest relative deviation of ``headline`` from ``reference``.

    A value missing on either side counts as a 100% deviation.
    """
    drift = 0.0
    for key in set(headline) | set(reference):
        if key not in headline or key not in reference:
            return 1.0
        ours, ref = headline[key], reference[key]
        scale = max(abs(ours), abs(ref))
        if scale:
            drift = max(drift, abs(ours - ref) / scale)
    return drift


def calibrated(rep, sensitivity):
    """``rep`` with its set-up and cell times in calibrated seconds, each
    scaled by the noise samples taken around it, to the workload's
    ``sensitivity``."""
    samples = rep["calibration_s"]

    def local(start, seconds):
        return seconds * calibration.scale(
            samples, start, start + seconds) ** sensitivity

    return dict(rep, setup_s=local(rep["setup_start_s"], rep["setup_s"]),
                cells=[dict(cell, wall_s=local(cell["start_s"],
                                               cell["wall_s"]))
                       for cell in rep["cells"]])


def end_to_end(good):
    """The end-to-end metrics of the reps that completed.

    Rates, set-up and memory are medians over reps.  The cell
    percentiles are taken over the cells of every rep pooled: on
    ``corpus`` at least 112 (28 scenarios in each of four passes), so
    at least 11 lie beyond the 90th percentile; on the other workloads
    only 4 (``rpc``) or 1 per rep.  ``cell_samples`` in the summary
    gives the count.
    """
    cells_ms = [cell["wall_s"] * 1000.0
                for rep in good for cell in rep["cells"]]
    return {
        "ops_per_s": median_of([rep_rate(rep) for rep in good]),
        "setup_s": median_of([rep["setup_s"] for rep in good]),
        "peak_rss_mb": median_of([rep["peak_rss_mb"] for rep in good]),
        "cell_p50_ms": percentile(cells_ms, 50),
        "cell_p90_ms": percentile(cells_ms, 90),
    }


def merge_headlines(results):
    """One headline from the results of one seed's reps.

    Reps of the same pass report the same keys and must agree on every
    value; passes report disjoint keys.  Returns ``(headline,
    disagreeing keys)``.
    """
    merged, disagree = {}, set()
    for result in results:
        for key, value in (result.get("headline") or {}).items():
            if merged.setdefault(key, value) != value:
                disagree.add(key)
    return merged, sorted(disagree)


def summarise(name, seed, reps, traced, references, quick=1):
    """Metrics and verdict of one workload's reps.

    Returns a dict with the ``end_to_end`` and ``per_layer`` metric
    values (times in calibrated seconds), the counts, and the
    correctness verdict with its reasons.  ``reps`` keeps every rep's
    raw walls and noise samples.
    """
    sensitivity = workloads.WORKLOADS[name].sensitivity
    good = [calibrated(rep, sensitivity) for rep in reps
            if "error" not in rep]
    everything = reps + ([traced] if traced is not None else [])
    attempted = sum(rep["attempted"] for rep in everything)
    failed = sum(rep["failed"] for rep in everything)
    problems = [problem for rep in everything for problem in rep["problems"]]
    headline, disagree = merge_headlines(everything)
    if disagree:
        problems.append("same-seed reps disagree on the simulated results "
                        "%s" % disagree[:5])
    drift = None
    reference = references.get(name, {}).get(str(seed))
    if reference is not None and quick == 1 and headline:
        drift = sim_drift(headline, reference)
        if drift > RESULT_RTOL:
            problems.append("simulated results drift %.4f from the "
                            "references pinned for seed %d" % (drift, seed))
    summary = {
        "workload": name, "seed": seed, "quick": quick,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
        "sim_drift": drift, "problems": problems,
        "correct": not problems and failed == 0,
        "cell_samples": sum(len(rep["cells"]) for rep in good),
        "end_to_end": {}, "per_layer": {},
        "reps": [{key: rep.get(key) for key in
                  ("pass", "setup_start_s", "setup_s", "calibration_s",
                   "peak_rss_mb", "ops", "attempted", "failed", "cells",
                   "error")}
                 for rep in everything],
    }
    if not good:
        return summary
    summary["end_to_end"] = end_to_end(good)
    if traced is not None and "error" not in traced:
        summary["per_layer"] = per_layer(
            good, calibrated(traced, sensitivity),
            summary["end_to_end"]["ops_per_s"])
    return summary


def per_layer(good, traced, ops_per_s):
    """The traced rep's layer metrics plus those derived from timed reps
    (all reps calibrated)."""
    metrics = dict(traced["layers"])
    metrics["simnet.events_per_s"] = \
        metrics["simnet.events_per_op"] * ops_per_s
    for datapath in workloads.RPC_DATAPATHS:
        metrics["datapaths.%s.ops_per_s" % datapath] = median_of(
            [rep_rate(rep, datapath) for rep in good])
    for kind in ("streaming", "pingpong", "bulk", "fanout", "closed_loop",
                 "baseline"):
        metrics["scenario.%s.cell_ms" % kind] = median_of(
            [cell["wall_s"] * 1000.0 for rep in good
             for cell in rep["cells"] if cell["kind"] == kind])
    untraced = median_of([sum(cell["wall_s"] for cell in rep["cells"])
                          for rep in good if rep["pass"] == traced["pass"]])
    traced_wall = sum(cell["wall_s"] for cell in traced["cells"])
    metrics["trace.overhead"] = traced_wall / untraced if untraced else 0.0
    return metrics


# -- reporting --------------------------------------------------------------


def declared_metrics(declaration, traced):
    return declaration["per_layer" if traced else "end_to_end"]


def result_metrics(summary, declaration, traced):
    """``{name: {"value", "unit"}}`` for every declared metric, or None
    when the run could not measure all of them."""
    values = summary["per_layer" if traced else "end_to_end"]
    metrics = {}
    for spec in declared_metrics(declaration, traced):
        if spec["name"] not in values:
            return None
        metrics[spec["name"]] = {"value": values[spec["name"]],
                                 "unit": spec["unit"]}
    return metrics


def metric_lines(name, metrics, summary):
    lines = ["%s %s %r %s" % (name, metric, entry["value"], entry["unit"])
             for metric, entry in metrics.items()]
    lines.append("%s cell_samples %d count" % (name, summary["cell_samples"]))
    lines.append("%s failed_frac %r fraction" % (name, summary["failed_frac"]))
    lines.append("%s sim_drift %s fraction"
                 % (name, "null" if summary["sim_drift"] is None
                    else repr(summary["sim_drift"])))
    return lines


def write_report(out, summary, metrics, meta):
    from repro.report import RunReport

    os.makedirs(out, exist_ok=True)
    report = RunReport(kind="perf.workload",
                       data=dict(summary, metrics=metrics), meta=meta)
    path = os.path.join(out, "%s-seed%d-%d-%d.json" % (
        summary["workload"], summary["seed"], int(meta["unix_time"]),
        os.getpid()))
    with open(path, "w") as handle:
        handle.write(report.to_json(indent=2))
        handle.write("\n")
    return path


def main(argv=None):
    declaration = load_declaration()
    names = [workload["name"] for workload in declaration["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__.strip().splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add the profiled rep; report per-layer "
                             "metrics")
    parser.add_argument("--out", default=os.path.join(PERF_DIR, "results"),
                        help="directory for RunReports and .pstats files")
    parser.add_argument("--workload", choices=names,
                        help="run only this workload")
    parser.add_argument("--seconds", type=float,
                        default=declaration["run_seconds"],
                        help="how long each workload's reps run")
    parser.add_argument("--quick", type=int, default=1,
                        help="divide every workload's input size by this "
                             "and run the fewest reps (self-tests)")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    references = load_references()
    seconds = args.seconds if args.quick == 1 else 0.0
    meta = noise_meta()
    meta.update(seconds=seconds, trace=args.trace)
    traced = bool(args.trace)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    selected = [args.workload] if args.workload else names
    for name in selected:
        try:
            reps, traced_rep = measure(name, args.seed, seconds,
                                       trace=traced, quick=args.quick,
                                       out=args.out)
        except NoProgramError as exc:
            print("perf: no program to measure: %s" % exc, file=sys.stderr)
            return EXIT_NO_PROGRAM
        summary = summarise(name, args.seed, reps, traced_rep, references,
                            quick=args.quick)
        for problem in summary["problems"]:
            print("perf: %s: %s" % (name, problem), file=sys.stderr)
        metrics = result_metrics(summary, declaration, traced)
        if metrics is None:
            print("perf: %s: the reps that completed cannot give every "
                  "declared metric, nothing to report" % name,
                  file=sys.stderr)
            return EXIT_FAILED
        for line in metric_lines(name, metrics, summary):
            print(line)
        write_report(args.out, summary, metrics, meta)
        combined["correct"] = combined["correct"] and summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        if len(selected) == 1:
            combined["metrics"] = metrics
        else:
            combined["metrics"].update(
                ("%s.%s" % (name, metric), entry)
                for metric, entry in metrics.items())
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] and not combined["failed"] \
        else EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
