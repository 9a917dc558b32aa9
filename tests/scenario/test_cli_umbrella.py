"""The ``insane`` umbrella CLI."""

import json
import os

import pytest

from repro.cli import main
from repro.scenario.runner import builtin_corpus_dir

PINGPONG = os.path.join(builtin_corpus_dir(), "pingpong-dpdk-rtt.yaml")


class TestUmbrella:
    def test_help_lists_every_subcommand(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in ("bench", "validate", "scenario"):
            assert name in out

    def test_no_args_is_an_error(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command_rejected(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "frobnicate" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bench", "validate"])
    def test_subcommand_usage_names_the_umbrella_spelling(self, command,
                                                          capsys):
        with pytest.raises(SystemExit) as exited:
            main([command, "--help"])
        assert exited.value.code == 0
        usage = capsys.readouterr().out.splitlines()[0]
        assert usage.startswith("usage: insane %s " % command)


class TestScenarioSubcommand:
    def test_run_reports_pass_and_digest(self, capsys):
        assert main(["scenario", "run", PINGPONG, "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "PASS pingpong-dpdk-rtt" in out
        assert "1/1 passed" in out
        assert "merged digest" in out

    def test_run_failure_sets_exit_code_and_prints_reason(self, tmp_path,
                                                          capsys):
        (tmp_path / "doomed.yaml").write_text(
            "scenario: doomed\nworkload: {kind: pingpong, rounds: 10}\n"
            "slo: {p99_latency_max: 1ns}\n"
        )
        assert main(["scenario", "run", str(tmp_path), "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "FAIL doomed" in out
        assert "exceeds" in out

    def test_run_writes_a_suite_run_report(self, tmp_path, capsys):
        from repro.report import RunReport

        report_path = str(tmp_path / "suite.json")
        assert main(["scenario", "run", PINGPONG, "--no-cache",
                     "--json", report_path]) == 0
        documents = json.load(open(report_path))
        report = RunReport.from_dict(documents[0])
        assert report.kind == "scenario.suite"
        assert report.data["ok"]

    def test_validate_rejects_bad_documents_with_exit_60(self, tmp_path,
                                                         capsys):
        (tmp_path / "bad.yaml").write_text(
            "scenario: bad\nworkload: {kind: warp}\nslo: {goodput_min: 1}\n"
        )
        assert main(["scenario", "validate", str(tmp_path)]) == 60
        err = capsys.readouterr().err
        assert "workload.kind" in err

    def test_list_shows_the_builtin_corpus(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "pingpong-dpdk-rtt" in out
        assert "built-in corpus" in out
