"""The seeded fuzzer and its greedy shrinker."""

import json
from dataclasses import replace

import pytest

from repro.validate.fuzz import check_spec, shrink
from repro.validate.parallel import format_fuzz_failure, parallel_fuzz
from repro.validate.workloads import WorkloadSpec, random_spec


class TestFuzz:
    def test_smoke_run_is_clean(self):
        checked, failures, _sweep = parallel_fuzz(seed=0, n=6)
        assert checked == 6
        assert failures == [], format_fuzz_failure(failures[0])

    def test_check_spec_matches_property_suite(self):
        assert check_spec(random_spec(3)) == []

    @pytest.mark.slow
    def test_soak_with_differential_cross_check(self):
        checked, failures, _sweep = parallel_fuzz(seed=1000, n=40,
                                                  differential=True)
        assert checked == 40
        assert failures == [], format_fuzz_failure(failures[0])


class TestShrink:
    def test_shrinks_to_a_compact_spec(self):
        # artificial invariant: specs with more than 10 messages "fail";
        # the shrinker must strip every irrelevant feature and land on the
        # smallest still-failing message count its moves can reach (11).
        fat = WorkloadSpec(
            seed=0, kind="pingpong", profile="cloud", messages=97,
            size=512, interval_ns=20_000.0, accelerated=True,
            constrained=True, time_sensitive=True, sinks=1,
            fault_plan=("random", 3, 4),
        )

        def check(spec):
            return ["too many messages"] if spec.messages > 10 else []

        shrunk, violations = shrink(fat, check=check, max_steps=200)
        assert violations == ["too many messages"]
        assert shrunk.messages == 11
        assert shrunk.kind == "stream"
        assert shrunk.profile == "local"
        assert shrunk.size == 32
        assert not shrunk.time_sensitive
        assert not shrunk.constrained
        assert shrunk.fault_plan == ()

    def test_passing_spec_is_returned_unchanged(self):
        spec = random_spec(3)
        shrunk, violations = shrink(spec, check=lambda s: [])
        assert shrunk == spec
        assert violations == []

    def test_crashing_candidate_counts_as_failing(self):
        # a shrink move must never "fix" a bug by crashing instead
        spec = replace(random_spec(3), messages=40)

        def check(s):
            if s.messages < 40:
                raise RuntimeError("boom")
            return ["original failure"]

        shrunk, violations = shrink(spec, check=check, max_steps=10)
        assert violations  # still failing, crash did not mask it
        assert any("crashed" in v or "original" in v for v in violations)

    def test_shrunk_spec_round_trips_as_repro_json(self):
        fat = replace(random_spec(7), messages=50)
        spec_json = json.loads(fat.to_json())
        report = format_fuzz_failure({
            "seed": fat.seed, "spec": spec_json, "violations": ["x"],
            "shrunk": spec_json, "shrunk_violations": ["x"],
        })
        assert "PROPERTY VIOLATION seed=%d" % fat.seed in report
        start = report.index("{", report.index("repro JSON"))
        end = report.index("}", start) + 1
        assert WorkloadSpec.from_json(report[start:end]) == fat
