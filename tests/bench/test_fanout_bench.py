"""`insane bench fanout` — report shape, CLI wiring, error bound."""

import json

import pytest

from repro.bench.cli import main
from repro.bench.fanout import format_fanout, run_fanout_bench


class TestRunFanoutBench:
    def test_report_carries_metrics_and_error_bound(self):
        report, metrics, diff = run_fanout_bench(
            subscribers=5000, messages=8, size=512, hot_fraction=0.001,
            diff_subscribers=(64,), diff_messages=8)
        assert report.kind == "bench.fanout"
        assert report.data["fanout"] is metrics
        assert metrics["delivered"] == metrics["expected"] == 5000 * 8
        assert diff["ok"], diff
        assert diff["delivered_exact"] and diff["wire_conserved"]
        assert report.meta["wall_s"] >= report.meta["fanout_wall_s"]
        # the whole report must be JSON-native (it is written to disk)
        json.dumps(report.data)

    def test_differential_can_be_skipped(self):
        report, metrics, diff = run_fanout_bench(
            subscribers=1000, messages=4, size=512, hot_fraction=0.0,
            differential=False)
        assert diff is None
        assert report.data["differential"] is None
        assert metrics["fluid"]["mode"] == "analytic"

    def test_format_mentions_the_bound(self):
        report, _, _ = run_fanout_bench(
            subscribers=1000, messages=4, size=512, hot_fraction=0.01,
            diff_subscribers=(64,), diff_messages=8)
        text = format_fanout(report)
        assert "error bound" in text
        assert "OK" in text


class TestCli:
    def test_bench_fanout_subcommand(self, capsys, tmp_path):
        out = tmp_path / "fanout.json"
        assert main(["fanout", "--subscribers", "2000", "--messages", "6",
                     "--hot-fraction", "0.002", "--no-differential",
                     "--report", str(out)]) == 0
        captured = capsys.readouterr().out
        assert "2000 subscribers" in captured
        reports = json.loads(out.read_text())
        assert any(r["kind"] == "bench.fanout" for r in reports)

    def test_bench_fanout_rejects_bad_population(self):
        with pytest.raises(SystemExit):
            main(["fanout", "--subscribers", "0", "--no-differential"])

    @pytest.mark.parametrize("argv, initial", [
        (["--datapath", "kernel_udp"], "udp"),
        (["--datapath", "udp"], "udp"),
        ([], "dpdk"),  # unpinned: the QoS mapping picks DPDK
    ])
    def test_bench_fanout_datapath_spellings(self, tmp_path, argv, initial):
        out = tmp_path / "fanout.json"
        assert main(["fanout", "--subscribers", "1000", "--messages", "16",
                     "--no-differential", "--report", str(out)] + argv) == 0
        (report,) = json.loads(out.read_text())
        assert report["data"]["fanout"]["datapath"]["initial"] == initial

    def test_bench_fanout_rejects_unknown_datapath(self):
        with pytest.raises(SystemExit, match="unknown datapath 'tcp'"):
            main(["fanout", "--subscribers", "10", "--datapath", "tcp",
                  "--no-differential"])
