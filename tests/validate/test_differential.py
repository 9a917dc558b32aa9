"""The differential oracle: fast vs legacy engine, bit for bit."""

import pytest

from repro.validate.canonical import CanonicalTrace
from repro.validate.cli import main
from repro.validate.differential import (
    compare_spec,
    first_difference,
    perturbed_profile,
)
from repro.validate.parallel import parallel_differential
from repro.validate.workloads import random_spec


def _fast_and_legacy_lines(report):
    lines = report.splitlines()
    fast = [line for line in lines if line.startswith("    fast:")]
    legacy = [line for line in lines if line.startswith("    legacy:")]
    return fast[0].split(":", 1)[1], legacy[0].split(":", 1)[1]


class TestOracle:
    def test_engines_agree_bit_for_bit_on_random_workloads(self):
        checked, divergences, _sweep = parallel_differential(seed=0, n=8)
        assert checked == 8
        assert divergences == [], divergences[0]["report"]

    def test_traces_not_trivially_empty(self):
        divergence, fast, legacy = compare_spec(random_spec(0))
        assert divergence is None
        assert len(fast.trace) > 50
        assert fast.trace.digest() == legacy.trace.digest()

    @pytest.mark.slow
    def test_fifty_workload_acceptance_sweep(self):
        # seeds 50-99: the per-PR CI job already sweeps seeds 0-49
        checked, divergences, _sweep = parallel_differential(seed=50, n=50)
        assert checked == 50
        assert divergences == [], divergences[0]["report"]


class TestPerturbationSelfTest:
    """Scaling one cost-model stage on one side MUST be caught."""

    def test_perturbed_stage_cost_diverges_with_named_event(self):
        checked, divergences, _sweep = parallel_differential(
            seed=0, n=8, perturb="insane_ipc=1.01"
        )
        assert checked == 8  # every spec is checked, divergent or not
        assert [d["seed"] for d in divergences] == list(range(8))
        report = divergences[0]["report"]
        assert "first differing canonical event" in report
        assert "repro: insane validate repro --seed 0" in report
        fast_line, legacy_line = _fast_and_legacy_lines(report)
        assert fast_line != legacy_line

    def test_tiny_per_byte_perturbation_still_caught(self):
        checked, divergences, _sweep = parallel_differential(
            seed=0, n=8, perturb="dpdk_tx=1.001"
        )
        assert divergences, "a 0.1% datapath cost change must not pass"

    def test_unknown_stage_key_fails_loudly(self):
        with pytest.raises(KeyError):
            perturbed_profile("local", "no_such_stage=2.0")

    def test_identity_factor_does_not_diverge(self):
        _checked, divergences, _sweep = parallel_differential(
            seed=0, n=3, perturb="insane_ipc=1.0"
        )
        assert divergences == []


class TestCli:
    def test_perturbed_run_checks_every_spec_and_fails(self, capsys):
        assert main(["differential", "--seed", "0", "--n", "3",
                     "--perturb", "insane_ipc=1.01"]) == 1
        out = capsys.readouterr().out
        assert "differential: 3/3 workload(s) checked, 3 divergence(s)" in out
        assert out.count("DIVERGENCE seed=") == 3

    def test_clean_run_exits_zero(self, capsys):
        assert main(["differential", "--seed", "0", "--n", "2"]) == 0
        assert "2/2 workload(s) checked, 0 divergence(s)" in \
            capsys.readouterr().out


class TestFirstDifference:
    def _trace(self, events, summary=None):
        return CanonicalTrace(events=list(events), summary=summary or {})

    def test_equal_traces_have_no_difference(self):
        a = self._trace([("emit", 1.0, "pub", 1, 0)])
        b = self._trace([("emit", 1.0, "pub", 1, 0)])
        assert first_difference(a, b) is None

    def test_first_differing_line_is_indexed(self):
        a = self._trace([("emit", 1.0, "x"), ("deliver", 2.0, "x")])
        b = self._trace([("emit", 1.0, "x"), ("deliver", 2.5, "x")])
        index, fast_line, legacy_line = first_difference(a, b)
        assert index == 1
        assert "2.0" in fast_line and "2.5" in legacy_line

    def test_length_mismatch_reports_end_of_trace(self):
        a = self._trace([("emit", 1.0, "x"), ("deliver", 2.0, "x")])
        b = self._trace([("emit", 1.0, "x")])
        index, fast_line, legacy_line = first_difference(a, b)
        assert legacy_line == "<end of trace>"
        assert "deliver" in fast_line
