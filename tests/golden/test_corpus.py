"""Tier-1 guard: the pinned golden-trace corpus must hold.

``corpus.json`` pins sha256 digests of the paper workloads (fig5/fig8a/
fig8b), the failover bench, four differential-validation workloads and
the serial runs of the smoke64 and city256 cities, plus each paper
workload's count of scheduler round trips.
If a commit moves any pin, this test names the exact entry — re-pin
deliberately with ``insane validate golden --regen --force``.
"""

import json
import os

import pytest

from repro.obs import EngineObserver
from repro.simnet import Simulator
from repro.validate.golden import (
    ENGINE_WORKLOADS,
    _digest,
    check_corpus,
    corpus_path,
    load_corpus,
    regenerate_corpus,
    run_workload,
)


class TestCorpusFile:
    def test_corpus_is_pinned_in_repo(self):
        path = corpus_path()
        assert os.path.exists(path), (
            "tests/golden/corpus.json missing — regenerate with "
            "insane validate golden --regen"
        )
        corpus = load_corpus()
        assert corpus["version"] == 1
        for section in ("city", "engine", "faults", "schedule", "validate",
                        "params"):
            assert section in corpus
        assert set(corpus["city"]) == set(
            corpus["params"]["city"]["topologies"]
        )
        assert set(corpus["engine"]) == {
            "fig5_pingpong", "fig8a_streaming", "fig8b_8sink",
        }
        assert set(corpus["schedule"]) == set(corpus["engine"])
        assert "failover" in corpus["faults"]
        assert len(corpus["validate"]) == len(
            corpus["params"]["validate_seeds"]
        )

    def test_digests_look_like_sha256(self):
        corpus = load_corpus()
        for section in ("city", "engine", "faults", "validate"):
            for key, digest in corpus[section].items():
                assert isinstance(digest, str) and len(digest) == 64, (
                    "%s/%s is not a sha256 hex digest: %r"
                    % (section, key, digest)
                )

    def test_schedule_counts_are_plain_non_negative_ints(self):
        for key, count in load_corpus()["schedule"].items():
            assert type(count) is int and count >= 0, (
                "schedule/%s is not a non-negative int: %r" % (key, count)
            )


class TestCorpusHolds:
    def test_every_pinned_digest_matches_current_code(self):
        problems = check_corpus()
        assert problems == [], "\n".join(problems)

    @pytest.mark.parametrize("name", sorted(ENGINE_WORKLOADS))
    def test_schedule_pin_sees_what_the_digest_cannot(self, name,
                                                      monkeypatch):
        """An engine observer switches every fused path off: the digest
        holds, each executed event was scheduled, and the count of
        scheduler round trips rises above the pin."""
        monkeypatch.setattr(Simulator, "observer", EngineObserver())
        corpus = load_corpus()
        record = run_workload(name)
        stats = record["stats"]
        assert _digest(record["outcome"]) == corpus["engine"][name]
        assert stats["scheduled"] == (
            stats["events_executed"] + stats["cancelled_purged"]
            + stats["heap_size"] + stats["lane_size"]
        )
        assert stats["scheduled"] > corpus["schedule"][name]


class TestRegeneration:
    def test_refuses_to_overwrite_without_force(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text("{}")
        with pytest.raises(FileExistsError):
            regenerate_corpus(path=str(path))
        assert path.read_text() == "{}"  # untouched

    def test_force_overwrites_and_result_checks_clean(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text("{}")
        regenerate_corpus(path=str(path), force=True)
        assert check_corpus(path=str(path)) == []

    def test_tampered_digest_is_named_in_the_report(self, tmp_path):
        corpus = load_corpus()
        corpus["engine"]["fig5_pingpong"] = "0" * 64
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus))
        problems = check_corpus(path=str(path))
        assert len(problems) == 1
        assert "engine/fig5_pingpong" in problems[0]
        assert "golden digest moved" in problems[0]

    def test_unknown_pinned_entry_is_reported(self, tmp_path):
        corpus = load_corpus()
        corpus["validate"]["seed-99"] = "f" * 64
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus))
        problems = check_corpus(path=str(path))
        assert any("unknown entry validate/seed-99" in p for p in problems)

    def test_tampered_schedule_count_is_named_in_the_report(self,
                                                             tmp_path):
        corpus = load_corpus()
        corpus["schedule"]["fig8a_streaming"] += 1
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus))
        problems = check_corpus(path=str(path))
        assert len(problems) == 1
        assert "schedule count moved: schedule/fig8a_streaming" in problems[0]

    def test_tampered_city_digest_is_named_in_the_report(self, tmp_path):
        corpus = load_corpus()
        corpus["city"]["smoke64"] = "0" * 64
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus))
        problems = check_corpus(path=str(path))
        assert len(problems) == 1
        assert "golden digest moved: city/smoke64" in problems[0]
