"""Self-tests of the benchmark, at input sizes divided by ``QUICK``.

    pytest perf/tests
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import compare
import layers
import rep
import run
import workloads

QUICK = 20
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_cli(*args, timeout=600):
    done = subprocess.run([sys.executable, run.__file__] + list(args),
                          capture_output=True, text=True, timeout=timeout)
    return done, done.stdout.strip().splitlines()


def test_declaration_follows_the_naming_rules():
    declaration = run.load_declaration()
    names = [w["name"] for w in declaration["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS)
    metrics = declaration["end_to_end"] + declaration["per_layer"]
    assert len(declaration["per_layer"]) <= 128
    all_names = names + [spec["name"] for spec in metrics]
    assert len(all_names) == len(set(all_names))
    for spec in metrics:
        assert NAME.match(spec["name"]), spec
        assert UNIT.match(spec["unit"]), spec
        assert spec["better"] in ("higher", "lower"), spec
    for spec in declaration["end_to_end"]:
        assert 0 < spec["bound"] <= 0.25, spec
    setup = [{key: spec[key] for key in ("unit", "better")}
             for spec in declaration["end_to_end"]
             if spec["name"] == "setup_s"]
    assert setup == [{"unit": "s", "better": "lower"}]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_declared_metric_is_emitted_with_its_unit(tmp_path, trace):
    declaration = run.load_declaration()
    done, lines = run_cli("--quick", str(QUICK), "--trace", trace,
                          "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {tuple(line.split()[:2]): line.split()[3]
               for line in lines[:-1]}
    declared = run.declared_metrics(declaration, trace == "1")
    for workload in workloads.WORKLOADS:
        for spec in declared:
            entry = result["metrics"]["%s.%s" % (workload, spec["name"])]
            assert entry["unit"] == spec["unit"]
            assert isinstance(entry["value"], (int, float))
            assert printed[(workload, spec["name"])] == spec["unit"]
    if trace == "1":
        check_layer_attribution({key: entry["value"] for key, entry
                                 in result["metrics"].items()})
    reports = {}
    for name in os.listdir(tmp_path):
        if name.endswith(".json"):
            with open(os.path.join(tmp_path, name)) as handle:
                report = json.load(handle)
            reports[report["data"]["workload"]] = report
    assert sorted(reports) == sorted(workloads.WORKLOADS)
    for report in reports.values():
        assert report["kind"] == "perf.workload"
        for key in ("calibration_s", "nproc", "loadavg", "python",
                    "git_sha"):
            assert key in report["meta"]
        data = report["data"]
        assert printed[(data["workload"], "cell_samples")] == "count"
        timed = data["reps"][:-1] if trace == "1" else data["reps"]
        assert data["cell_samples"] == sum(len(rep["cells"])
                                           for rep in timed)
    corpus_passes = {rep["pass"] for rep in reports["corpus"]["data"]["reps"]}
    assert corpus_passes == set(range(workloads.Corpus.passes))


def check_layer_attribution(metrics):
    for workload in workloads.WORKLOADS:
        shares = sum(metrics["%s.%s.self_share" % (workload, layer)]
                     for layer in layers.LAYERS)
        assert abs(shares - 1.0) <= 0.01, (workload, shares)
        dist = metrics["%s.dist.advance_calls" % workload]
        fluid = metrics["%s.fluid.drain_ticks" % workload]
        assert (dist > 0) == (workload == "city"), workload
        assert (fluid > 0) == (workload == "fanout"), workload
    assert metrics["city.core.self_share"] < 0.01


@pytest.mark.parametrize("name", ["stream", "city"])
def test_traced_counts_repeat_exactly(tmp_path, name):
    first, second = (
        run.run_rep_subprocess(
            name, 0, QUICK, label,
            profile_path=str(tmp_path / ("%s.pstats" % label)))
        for label in ("a", "b"))
    # everything the traced rep measures but the time shares is a count
    counts = {key: value for key, value in first["layers"].items()
              if not key.endswith(".self_share")}
    assert len(counts) == len(first["layers"]) - len(layers.LAYERS)
    assert counts == {key: second["layers"][key] for key in counts}


def test_a_corrupted_reference_makes_sim_drift_positive():
    result = rep.run_rep("stream", 0, quick=QUICK)
    headline = result["headline"]
    assert run.sim_drift(headline, dict(headline)) == 0.0
    corrupted = dict(headline, goodput_gbps=headline["goodput_gbps"] * 1.1)
    assert run.sim_drift(headline, corrupted) > 0
    summary = run.summarise("stream", 0, [result], None,
                            {"stream": {"0": corrupted}})
    assert summary["sim_drift"] > run.RESULT_RTOL
    assert not summary["correct"]


def test_reps_that_disagree_on_the_simulated_results_are_not_correct():
    first = {"headline": {"p0.a": 1.0, "p0.b": 2}}
    second = {"headline": {"p0.a": 1.0, "p0.b": 3}}
    other_pass = {"headline": {"p1.a": 5.0}}
    merged, disagree = run.merge_headlines([first, other_pass, first])
    assert merged == {"p0.a": 1.0, "p0.b": 2, "p1.a": 5.0}
    assert disagree == []
    assert run.merge_headlines([first, second])[1] == ["p0.b"]


def test_cell_percentiles_pool_the_cells_of_every_rep():
    def rep(walls):
        return {"cells": [{"wall_s": wall, "ops": 1} for wall in walls],
                "setup_s": 0.1, "peak_rss_mb": 1.0}

    # 30 cells pooled, k ms for k in 1..10, 2..20 by 2 and 3..30 by 3:
    # the nearest-rank p50 is the 15th (9 ms), the p90 the 27th (21 ms)
    reps = [rep([0.001 * (i + 1) for i in range(10)]),
            rep([0.002 * (i + 1) for i in range(10)]),
            rep([0.003 * (i + 1) for i in range(10)])]
    metrics = run.end_to_end(reps)
    assert metrics["cell_p50_ms"] == pytest.approx(9.0)
    assert metrics["cell_p90_ms"] == pytest.approx(21.0)


def test_an_undelivered_message_fails_the_run(tmp_path, monkeypatch,
                                              capsys):
    from repro.bench.harness import InsaneBenchApp

    original = InsaneBenchApp.stream

    def one_short(self, messages, size, sinks=1):
        return original(self, messages - 1, size, sinks=sinks)

    def in_process(name, seed, quick, label, pass_index=0,
                   profile_path=None):
        return rep.run_rep(name, seed, quick=quick, pass_index=pass_index,
                           profile_path=profile_path)

    monkeypatch.setattr(InsaneBenchApp, "stream", one_short)
    monkeypatch.setattr(run, "run_rep_subprocess", in_process)
    status = run.main(["--workload", "stream", "--quick", str(QUICK),
                       "--out", str(tmp_path)])
    out = capsys.readouterr().out.strip().splitlines()
    assert status != 0
    result = json.loads(out[-1])
    assert result["failed"] == run.MIN_REPS
    assert not result["correct"]
    failed_frac = [line for line in out if " failed_frac " in line]
    assert float(failed_frac[0].split()[2]) > 0


def test_city_runs_through_the_real_cli_entry(tmp_path):
    done, lines = run_cli("--workload", "city", "--quick", "16",
                          "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert json.loads(lines[-1])["correct"]


def test_a_rep_past_its_timeout_is_killed_and_counted(monkeypatch):
    monkeypatch.setattr(workloads.Stream, "expected_wall_s", 0.02)
    result = run.run_rep_subprocess("stream", 3, 1, 0)
    assert "stream rep 0 seed 3 timed out" in result["error"]
    assert result["failed"] == result["attempted"] == \
        workloads.Stream.nominal_ops


def test_without_the_program_it_exits_nonzero_and_prints_no_result(
        tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(run.PERF_DIR, bare / "perf", ignore=shutil.ignore_patterns(
        "results", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    done = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "stream"], cwd=bare,
        capture_output=True, text=True, timeout=180)
    assert done.returncode not in (0, None)
    assert "correct" not in done.stdout


def test_compare_reads_gains_regressions_and_unresolved(tmp_path):
    def write(side, index, values, failed_frac, sim_drift):
        directory = tmp_path / side
        directory.mkdir(exist_ok=True)
        report = {"kind": "perf.workload", "meta": {"unix_time": index},
                  "data": {"workload": "stream", "failed_frac": failed_frac,
                           "sim_drift": sim_drift, "metrics": {
                               name: {"value": value, "unit": "x"}
                               for name, value in values.items()}}}
        (directory / ("%d.json" % index)).write_text(json.dumps(report))

    for index in range(10):
        # seeds 0-2 have pinned references, the others no sim_drift
        drift = 0.0 if index < 3 else None
        write("a", index, {"ops_per_s": 100.0 + index % 2,
                           "peak_rss_mb": 50.0 + index % 2,
                           "cell_p90_ms": 100.0 + 40 * (index % 2)},
              0.0, drift)
        # one of B's runs fails 1% of its ops
        write("b", index, {"ops_per_s": 120.0 + index % 2,
                           "peak_rss_mb": 60.0 + index % 2,
                           "cell_p90_ms": 101.0 + 40 * (index % 2)},
              0.01 if index == 5 else 0.0, drift)
    rows = {row["metric"]: row for row in compare.compare(
        compare.load_runs(tmp_path / "a"), compare.load_runs(tmp_path / "b"),
        run.load_declaration())}
    assert rows["ops_per_s"]["verdict"] == "gain"
    assert rows["ops_per_s"]["won_share"] == 1.0
    assert rows["peak_rss_mb"]["verdict"] == "regression"
    assert rows["cell_p90_ms"]["verdict"] == "unresolved"
    assert rows["failed_frac"]["verdict"] == "regression"
    assert rows["sim_drift"]["verdict"] == "ok"
    assert rows["sim_drift"]["pairs"] == 3
