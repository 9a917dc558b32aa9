"""Tier-1 guard: the pinned golden-trace corpus must hold.

``corpus.json`` pins sha256 digests of the paper workloads (fig5/fig8a/
fig8b), the failover bench, four differential-validation workloads and
the serial runs of the smoke64 and city256 cities.
If a commit moves any digest, this test names the exact entry — re-pin
deliberately with ``insane validate golden --regen --force``.
"""

import json
import os

import pytest

from repro.validate.golden import (
    check_corpus,
    corpus_path,
    load_corpus,
    regenerate_corpus,
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
        for section in ("city", "engine", "faults", "validate", "params"):
            assert section in corpus
        assert set(corpus["city"]) == set(
            corpus["params"]["city"]["topologies"]
        )
        assert set(corpus["engine"]) == {
            "fig5_pingpong", "fig8a_streaming", "fig8b_8sink",
        }
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


class TestCorpusHolds:
    def test_every_pinned_digest_matches_current_code(self):
        problems = check_corpus()
        assert problems == [], "\n".join(problems)


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

    def test_tampered_city_digest_is_named_in_the_report(self, tmp_path):
        corpus = load_corpus()
        corpus["city"]["smoke64"] = "0" * 64
        path = tmp_path / "corpus.json"
        path.write_text(json.dumps(corpus))
        problems = check_corpus(path=str(path))
        assert len(problems) == 1
        assert "golden digest moved: city/smoke64" in problems[0]
