"""Tests for the Fig. 6 breakdown driver and the insane bench CLI."""

import pytest

from repro.bench.breakdown import COMPONENTS, run_breakdown
from repro.bench.cli import EXPERIMENTS, main


class TestBreakdown:
    def test_components_sum_to_full_rtt(self):
        breakdown = run_breakdown("local", messages=100)
        total = sum(breakdown.values())
        # Fig. 7 local INSANE fast: 4.95 us
        assert total == pytest.approx(4.95, rel=0.10)

    def test_all_components_present_and_positive(self):
        breakdown = run_breakdown("local", messages=60)
        assert set(breakdown) == set(COMPONENTS)
        assert all(value > 0 for value in breakdown.values())

    def test_cloud_network_dominated_by_switch(self):
        breakdown = run_breakdown("cloud", messages=60)
        assert breakdown["network"] > max(
            breakdown["send"], breakdown["receive"], breakdown["data_processing"]
        )


class TestCli:
    def test_experiment_registry_covers_all_figures_and_tables(self):
        expected = {
            "table1", "table3", "table4", "fig5", "fig6", "fig7",
            "fig8a", "fig8b", "fig9a", "fig9b", "fig11",
            "ablation-tsn", "ablation-threads", "ablation-batching", "ablation-qos",
            "ablation-rx-threads", "faults", "validate", "breakdown",
            "capacity", "city", "fanout",
        }
        assert expected == set(EXPERIMENTS)

    def test_cli_runs_static_tables(self, capsys):
        assert main(["table1"]) == 0
        assert main(["table4"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output
        assert "Table 4" in output

    def test_cli_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_cli_quick_flag_sets_small_counts(self, capsys):
        assert main(["table3", "--quick"]) == 0
        assert "Table 3" in capsys.readouterr().out
