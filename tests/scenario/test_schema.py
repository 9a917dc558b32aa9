"""Scenario-document schema: normalization and loud, path-citing errors."""

import os

import pytest

from repro.core.errors import ScenarioError
from repro.scenario.runner import builtin_corpus_dir, discover_scenarios
from repro.scenario.schema import (
    SCENARIO_SCHEMA,
    load_scenario,
    parse_scenario,
    parse_size,
    validate_scenario,
)


def minimal(**overrides):
    document = {
        "scenario": "unit-minimal",
        "seed": 3,
        "workload": {"kind": "streaming", "messages": 10, "size": "1KB",
                     "interval": "2us"},
        "slo": {"delivery_ratio_min": 0.5},
    }
    document.update(overrides)
    return document


class TestNormalization:
    def test_minimal_spec_normalizes(self):
        spec = validate_scenario(minimal())
        assert spec["schema"] == SCENARIO_SCHEMA
        assert spec["workload"]["size"] == 1024
        assert spec["workload"]["interval"] == 2000.0
        # qos defaults to the fast policy, stored as enum values
        assert spec["workload"]["qos"]["acceleration"] == "fast"
        assert spec["topology"] == {"profile": "local", "hosts": 2,
                                    "impairments": []}
        assert spec["faults"] == []

    def test_duration_slo_thresholds_normalized(self):
        spec = validate_scenario(minimal(slo={"p99_latency_max": "80us"}))
        assert spec["slo"]["p99_latency_max"] == 80_000.0

    def test_normalized_spec_is_stable(self):
        assert validate_scenario(minimal()) == validate_scenario(minimal())

    def test_size_strings(self):
        assert parse_size("64B", "p") == 64
        assert parse_size("4KiB", "p") == 4096
        assert parse_size(512, "p") == 512
        with pytest.raises(ScenarioError):
            parse_size("fast", "p")

    def test_profile_replay_expands_to_records(self):
        spec = validate_scenario(minimal(faults=[{"profile": "wifi_flaky"}]))
        assert len(spec["faults"]) == 3
        assert all("kind" in f and "at" in f for f in spec["faults"])
        # expanded records are normalized (string durations -> float ns)
        assert spec["faults"][0]["at"] == 150_000.0


class TestErrorsCitePaths:
    def test_bad_interval_cites_workload_interval(self):
        bad = minimal()
        bad["workload"]["interval"] = "sometimes"
        with pytest.raises(ScenarioError) as err:
            validate_scenario(bad)
        assert err.value.path == "workload.interval"
        assert "workload.interval" in str(err.value)

    def test_source_file_named_in_message(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("scenario: x-1\nworkload: {kind: nope}\n"
                        "slo: {goodput_min: 1}\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        assert str(path) in str(err.value)
        assert err.value.path == "workload.kind"

    def test_unknown_top_level_field(self):
        with pytest.raises(ScenarioError) as err:
            validate_scenario(minimal(telemetry=True))
        assert err.value.path == "telemetry"

    def test_unknown_fault_kind_cites_index(self):
        bad = minimal(faults=[{"kind": "meteor_strike", "at": 0}])
        with pytest.raises(ScenarioError) as err:
            validate_scenario(bad)
        assert err.value.path == "faults[0].kind"

    def test_unknown_impairment_profile(self):
        with pytest.raises(ScenarioError) as err:
            validate_scenario(minimal(faults=[{"profile": "lunar_storm"}]))
        assert err.value.path == "faults[0].profile"

    def test_invalid_yaml_cites_source(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("scenario: [unclosed\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        assert "YAML" in str(err.value)
        assert str(path) in str(err.value)

    def test_future_schema_rejected(self):
        with pytest.raises(ScenarioError) as err:
            validate_scenario(minimal(schema=SCENARIO_SCHEMA + 1))
        assert err.value.path == "schema"

    def test_bad_name_rejected(self):
        with pytest.raises(ScenarioError):
            validate_scenario(minimal(scenario="Not A Name"))


class TestSemanticConflicts:
    def test_rdma_pin_on_cloud_rejected(self):
        bad = minimal(topology={"profile": "cloud"})
        bad["workload"]["datapath"] = "rdma"
        with pytest.raises(ScenarioError) as err:
            validate_scenario(bad)
        assert err.value.path == "workload.datapath"

    def test_datapath_pin_on_bulk_rejected(self):
        bad = minimal()
        bad["workload"] = {"kind": "bulk", "datapath": "dpdk"}
        bad["slo"] = {"completed": True}
        with pytest.raises(ScenarioError):
            validate_scenario(bad)

    def test_unknown_slo_listed(self):
        with pytest.raises(ScenarioError) as err:
            validate_scenario(minimal(slo={"p98_latency_max": "1ms"}))
        assert "known assertions" in str(err.value)

    def test_slo_for_wrong_workload_kind(self):
        with pytest.raises(ScenarioError) as err:
            validate_scenario(minimal(slo={"retransmissions_max": 3}))
        assert "unfalsifiable" in str(err.value)

    def test_percentile_chain_must_be_monotone(self):
        with pytest.raises(ScenarioError) as err:
            validate_scenario(minimal(slo={"p50_latency_max": "90us",
                                           "p99_latency_max": "10us"}))
        assert "never beat" in str(err.value)

    def test_delivered_min_capped_by_workload(self):
        with pytest.raises(ScenarioError):
            validate_scenario(minimal(slo={"delivered_min": 11}))

    def test_failovers_need_a_datapath_failure(self):
        with pytest.raises(ScenarioError):
            validate_scenario(minimal(slo={"failovers_min": 1}))
        spec = validate_scenario(minimal(
            faults=[{"kind": "datapath_failure", "at": "100us",
                     "datapath": "dpdk"}],
            slo={"failovers_min": 1},
        ))
        assert spec["slo"]["failovers_min"] == 1

    def test_missing_slo_section_rejected(self):
        bad = minimal()
        del bad["slo"]
        with pytest.raises(ScenarioError) as err:
            validate_scenario(bad)
        assert err.value.path == "slo"


class TestParsing:
    def test_json_documents_accepted(self):
        spec = parse_scenario(
            '{"scenario": "j-1", "workload": {"kind": "pingpong"}, '
            '"slo": {"p99_latency_max": 99000}}'
        )
        assert spec["scenario"] == "j-1"
        assert spec["workload"]["rounds"] == 300

    def test_yaml_documents_accepted(self):
        spec = parse_scenario(
            "scenario: y-1\n"
            "workload: {kind: pingpong, size: 64B}\n"
            "slo: {p99_latency_max: 99us}\n"
        )
        assert spec["workload"]["size"] == 64
        assert spec["slo"]["p99_latency_max"] == 99_000.0


class TestHybridFanout:
    """The subscribers/fidelity hybrid mode of the fanout workload."""

    def workload(self, **fields):
        section = {"kind": "fanout"}
        section.update(fields)
        return minimal(workload=section)

    def test_subscribers_normalizes_with_defaults(self):
        spec = validate_scenario(self.workload(subscribers=1000))
        workload = spec["workload"]
        assert workload["subscribers"] == 1000
        assert workload["messages"] == 64  # hybrid default, not 300
        assert "sinks" not in workload

    def test_fidelity_block_normalizes(self):
        spec = validate_scenario(self.workload(
            subscribers=1000,
            fidelity={"hot_fraction": 0.05, "promote_threshold": 2000,
                      "drain_interval": "250us"}))
        fidelity = spec["workload"]["fidelity"]
        assert fidelity["hot_fraction"] == 0.05
        assert fidelity["promote_threshold"] == 2000.0
        assert fidelity["drain_interval"] == 250_000.0

    def test_subscribers_and_sinks_conflict(self):
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(self.workload(subscribers=10, sinks=3))
        assert excinfo.value.path == "workload.subscribers"

    def test_fidelity_requires_subscribers(self):
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(self.workload(
                sinks=3, fidelity={"hot_fraction": 0.5}))
        assert excinfo.value.path == "workload.fidelity"

    def test_interval_requires_subscribers(self):
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(self.workload(sinks=3, interval="10us"))
        assert excinfo.value.path == "workload.interval"

    def test_hot_fraction_range_checked(self):
        for bad in (-0.1, 1.5, True):
            with pytest.raises(ScenarioError) as excinfo:
                validate_scenario(self.workload(
                    subscribers=10, fidelity={"hot_fraction": bad}))
            assert excinfo.value.path == "workload.fidelity.hot_fraction"

    def test_unknown_fidelity_field_rejected(self):
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(self.workload(
                subscribers=10, fidelity={"hotness": 0.5}))
        assert "hotness" in str(excinfo.value)

    def test_time_sensitive_qos_needs_full_packet_accuracy(self):
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(self.workload(
                subscribers=10,
                qos={"time_sensitivity": "time_sensitive"}))
        assert excinfo.value.path == "workload.qos.time_sensitivity"
        # hot_fraction == 1.0 restores per-packet guarantees: accepted
        validate_scenario(self.workload(
            subscribers=10, fidelity={"hot_fraction": 1.0},
            qos={"time_sensitivity": "time_sensitive"}))

    def test_promotions_min_needs_hybrid_and_threshold(self):
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(minimal(
                workload={"kind": "fanout", "sinks": 3},
                slo={"promotions_min": 1}))
        assert excinfo.value.path == "slo.promotions_min"
        with pytest.raises(ScenarioError) as excinfo:
            validate_scenario(minimal(
                workload={"kind": "fanout", "subscribers": 10},
                slo={"promotions_min": 1}))
        assert "promote_threshold" in str(excinfo.value)
        validate_scenario(minimal(
            workload={"kind": "fanout", "subscribers": 10,
                      "fidelity": {"promote_threshold": 500}},
            slo={"promotions_min": 1}))


def _loader(monkeypatch, kind):
    """Make ``parse_scenario`` use libyaml's parser ("c") or the
    pure-Python one ("python"); skip the C half without libyaml."""
    yaml = pytest.importorskip("yaml")
    if kind == "c":
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
    else:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    return yaml


class TestYamlLoaders:
    @pytest.mark.parametrize("path", discover_scenarios(builtin_corpus_dir()),
                             ids=os.path.basename)
    def test_both_loaders_give_equal_specs(self, path, monkeypatch):
        with open(path) as handle:
            text = handle.read()
        _loader(monkeypatch, "c")
        fast = parse_scenario(text, source=path)
        _loader(monkeypatch, "python")
        assert parse_scenario(text, source=path) == fast

    @pytest.mark.parametrize("kind", ["c", "python"])
    def test_malformed_yaml_raises_scenario_error(self, kind, monkeypatch):
        _loader(monkeypatch, kind)
        with pytest.raises(ScenarioError, match="invalid YAML"):
            parse_scenario("scenario: [unclosed\n", source="bad.yaml")
