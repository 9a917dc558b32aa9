"""Tier-1 guard: the pinned golden-trace corpus must hold.

``corpus.json`` pins sha256 digests of the paper workloads (fig5/fig8a/
fig8b), the failover bench, four differential-validation workloads and
the serial runs of the smoke64 and city256 cities, plus each paper
workload's and each city's count of scheduler round trips.  It also
pins every other entry point: the scenario corpus, the hybrid fan-out
tier, the capacity grid, the baseline systems, the breakdowns, the
polling-thread ablations A2 and A5 and each datapath plugin's own send
and receive loops.
If a commit moves any pin, this test names the exact entry — re-pin
deliberately with ``insane validate golden --regen --force``.

The corpus takes a few seconds to compute, so it is computed once per
session and every check below compares against that one copy.
"""

import copy
import json
import os

import pytest

from repro.dist.sync import run_city_serial
from repro.hw.generate import resolve_topology
from repro.obs import EngineObserver
from repro.simnet import Simulator
from repro.validate import golden
from repro.validate.golden import (
    CITY_SEED,
    CITY_TOPOLOGIES,
    ENGINE_WORKLOADS,
    SECTIONS,
    _digest,
    check_corpus,
    corpus_path,
    load_corpus,
    regenerate_corpus,
    run_workload,
)


@pytest.fixture(scope="session")
def session_corpus():
    return golden.compute_corpus()


@pytest.fixture
def computed(session_corpus, monkeypatch):
    """``compute_corpus`` answers from the session's one computed copy."""
    monkeypatch.setattr(golden, "compute_corpus",
                        lambda: copy.deepcopy(session_corpus))
    return session_corpus


def _check_tampered(tmp_path, section, key, value):
    corpus = load_corpus()
    corpus[section][key] = value
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(corpus))
    return check_corpus(path=str(path))


class TestCorpusFile:
    def test_corpus_is_pinned_in_repo(self):
        path = corpus_path()
        assert os.path.exists(path), (
            "tests/golden/corpus.json missing — regenerate with "
            "insane validate golden --regen"
        )
        corpus = load_corpus()
        assert corpus["version"] == 1
        for section in SECTIONS + ("params",):
            assert section in corpus
        assert set(corpus["city"]) == set(
            corpus["params"]["city"]["topologies"]
        )
        assert set(corpus["engine"]) == {
            "fig5_pingpong", "fig8a_streaming", "fig8b_8sink",
        }
        assert set(corpus["schedule"]) == set(corpus["engine"]) | {
            "city-" + name for name in corpus["city"]
        }
        assert "failover" in corpus["faults"]
        assert len(corpus["validate"]) == len(
            corpus["params"]["validate_seeds"]
        )
        assert len(corpus["scenario"]) == 28
        assert set(corpus["capacity"]) == {"udp", "xdp", "dpdk", "rdma"}
        assert len(corpus["baselines"]) == 7 + 4 + 3
        assert set(corpus["breakdown"]) == {"fig6", "traced"}
        assert set(corpus["fanout"]) == set(golden.FANOUT_RUNS)
        assert set(corpus["polling"]) == {"a2-threads", "a5-rx-threads"}
        assert set(corpus["datapaths"]) == {"udp", "xdp", "dpdk", "rdma"}

    def test_digests_look_like_sha256(self):
        corpus = load_corpus()
        for section in set(SECTIONS) - {"schedule"}:
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
    def test_every_pinned_digest_matches_current_code(self, computed):
        problems = check_corpus()
        assert problems == [], "\n".join(problems)

    @pytest.mark.parametrize("name", sorted(ENGINE_WORKLOADS) + [
        "city-" + name for name in CITY_TOPOLOGIES])
    def test_schedule_pin_sees_what_the_digest_cannot(self, name,
                                                      monkeypatch):
        """An engine observer switches every fused path off: the digest
        holds, each executed event was scheduled, and the count of
        scheduler round trips rises above the pin.  A city's count rises
        by exactly the hops it fuses: one NIC arrival per frame received
        and one switch arrival per frame forwarded."""
        corpus = load_corpus()
        if name in ENGINE_WORKLOADS:
            monkeypatch.setattr(Simulator, "observer", EngineObserver())
            record = run_workload(name)
            stats = record["stats"]
            assert _digest(record["outcome"]) == corpus["engine"][name]
            assert stats["scheduled"] == (
                stats["events_executed"] + stats["cancelled_purged"]
                + stats["heap_size"] + stats["lane_size"]
            )
            assert stats["scheduled"] > corpus["schedule"][name]
            return
        topology = name[len("city-"):]
        spec = dict(resolve_topology(topology), seed=CITY_SEED)
        plain = run_city_serial(spec)
        monkeypatch.setattr(Simulator, "observer", EngineObserver())
        observed = run_city_serial(spec)
        assert observed["digest"] == plain["digest"] \
            == corpus["city"][topology]
        assert observed["events"] == plain["events"] == observed["scheduled"]
        assert plain["scheduled"] == corpus["schedule"][name]
        records = observed["records"]
        fused = records["core_forwarded"] + sum(
            value for key, value in records["counters"].items()
            if key.endswith((".rx_frames", ".rx_dropped", ".forwarded"))
        )
        assert observed["scheduled"] - corpus["schedule"][name] == fused


class TestRegeneration:
    def test_refuses_to_overwrite_without_force(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_text("{}")
        with pytest.raises(FileExistsError):
            regenerate_corpus(path=str(path))
        assert path.read_text() == "{}"  # untouched

    def test_force_overwrites_and_result_checks_clean(self, tmp_path,
                                                      computed):
        path = tmp_path / "corpus.json"
        path.write_text("{}")
        regenerate_corpus(path=str(path), force=True)
        assert check_corpus(path=str(path)) == []

    def test_tampered_digest_is_named_in_the_report(self, tmp_path,
                                                    computed):
        problems = _check_tampered(tmp_path, "engine", "fig5_pingpong",
                                   "0" * 64)
        assert len(problems) == 1
        assert "engine/fig5_pingpong" in problems[0]
        assert "golden digest moved" in problems[0]

    def test_unknown_pinned_entry_is_reported(self, tmp_path, computed):
        problems = _check_tampered(tmp_path, "validate", "seed-99", "f" * 64)
        assert any("unknown entry validate/seed-99" in p for p in problems)

    def test_tampered_schedule_count_is_named_in_the_report(self, tmp_path,
                                                             computed):
        count = load_corpus()["schedule"]["fig8a_streaming"] + 1
        problems = _check_tampered(tmp_path, "schedule", "fig8a_streaming",
                                   count)
        assert len(problems) == 1
        assert "schedule count moved: schedule/fig8a_streaming" in problems[0]

    def test_tampered_city_digest_is_named_in_the_report(self, tmp_path,
                                                         computed):
        problems = _check_tampered(tmp_path, "city", "smoke64", "0" * 64)
        assert len(problems) == 1
        assert "golden digest moved: city/smoke64" in problems[0]

    @pytest.mark.parametrize("section, key", [
        ("scenario", "streaming-dpdk-clean"),
        ("fanout", "hybrid-10k"),
        ("capacity", "rdma"),
        ("baselines", "fig9-zeromq"),
        ("breakdown", "traced"),
        ("polling", "a5-rx-threads"),
        ("datapaths", "xdp"),
    ])
    def test_tampered_entry_point_digest_is_named(self, tmp_path, computed,
                                                  section, key):
        problems = _check_tampered(tmp_path, section, key, "0" * 64)
        assert problems == [
            "golden digest moved: %s/%s pinned %s, current %s"
            % (section, key, "0" * 64, computed[section][key])
        ]
