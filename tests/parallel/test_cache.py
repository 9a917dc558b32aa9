"""Result-cache semantics: hits skip execution, staleness forces misses.

The cache key is content-addressed over (cell spec, hardware-profile
content, package version, cache schema); these tests pin each component's
contribution and the executor-facing behaviours: a hit skips execution
entirely, ``cache=None`` (the ``--no-cache`` surface) always recomputes,
and a profile edit — even one that keeps the profile *name* — misses.
"""

import json
import os

import pytest

import repro
from repro.hw.profiles import PROFILES
from repro.parallel import (
    CACHE_SCHEMA,
    ResultCache,
    SweepExecutor,
    cache_key,
    make_cell,
    profile_digest,
    register_cell_kind,
)
from repro.simnet.cell import CELL_RUNNERS
from tests.parallel import helpers


@pytest.fixture(autouse=True)
def _test_kinds():
    saved = dict(CELL_RUNNERS)
    register_cell_kind("test.echo", "tests.parallel.helpers:echo_cell")
    register_cell_kind("test.failing", "tests.parallel.helpers:failing_cell")
    helpers.EXECUTIONS.clear()
    yield
    CELL_RUNNERS.clear()
    CELL_RUNNERS.update(saved)


#: cache-file contents that must read as a miss, as functions of the key
MALFORMED = {
    "empty-dict": lambda key: {},
    "list": lambda key: [],
    "string": lambda key: "payload",
    "other-key": lambda key: {"key": "0" * 64, "schema": CACHE_SCHEMA,
                              "payload": {}},
    "old-schema": lambda key: {"key": key, "schema": CACHE_SCHEMA - 1,
                               "payload": {}},
    "no-payload": lambda key: {"key": key, "schema": CACHE_SCHEMA},
}


def echo_cells(n=3):
    return [make_cell("test.echo", value=v, seed=0) for v in range(n)]


class TestCacheKey:
    def test_key_depends_on_cell_params(self):
        a = make_cell("test.echo", value=1, seed=0)
        b = make_cell("test.echo", value=2, seed=0)
        assert cache_key(a) != cache_key(b)
        assert cache_key(a) == cache_key(make_cell("test.echo", value=1, seed=0))

    def test_key_goes_stale_on_profile_change(self):
        cell = make_cell("bench.throughput", system="insane_fast",
                         messages=100, size=256, seed=0)
        local = cache_key(cell, profile=PROFILES["local"])
        cloud = cache_key(cell, profile=PROFILES["cloud"])
        assert local != cloud
        # the profile param inside the cell picks the default profile
        cloudy = make_cell("bench.throughput", system="insane_fast",
                           profile="cloud", messages=100, size=256, seed=0)
        assert cache_key(cloudy) != cache_key(cell)

    def test_key_goes_stale_on_profile_content_edit(self):
        """Editing a stage cost misses even when the name stays 'local'."""
        base = PROFILES["local"]
        stage = base.stages["insane_ipc"]
        scaled = type(stage)(fixed=stage.fixed * 2, per_pkt=stage.per_pkt,
                             per_byte=stage.per_byte)
        stages = dict(base.stages)
        stages["insane_ipc"] = scaled
        edited = base.replace(stages=stages)
        assert profile_digest(edited) != profile_digest(base)
        cell = make_cell("test.echo", value=1, seed=0)
        assert cache_key(cell, profile=edited) != cache_key(cell, profile=base)

    def test_key_goes_stale_on_version_change(self):
        cell = make_cell("test.echo", value=1, seed=0)
        current = cache_key(cell)
        assert cache_key(cell, version=repro.__version__) == current
        assert cache_key(cell, version="0.0.0-other") != current


class TestGeneratedTopologyKey:
    """Cells carrying a ``topology`` param fold the *resolved* generator
    spec into their key, so editing a preset's content — with the preset
    name, and therefore the cell JSON, unchanged — still misses."""

    def city_cell(self, topology="smoke64"):
        return make_cell("bench.city", topology=topology, partitions=2,
                         datapath="udp", seed=0)

    def test_key_goes_stale_on_preset_content_edit(self, monkeypatch):
        from repro.hw.generate import CITY_PRESETS

        cell = self.city_cell()
        before = cache_key(cell)
        edited = dict(CITY_PRESETS["smoke64"])
        edited["messages"] = edited.get("messages", 8) + 1
        monkeypatch.setitem(CITY_PRESETS, "smoke64", edited)
        assert cache_key(cell) != before

    def test_key_separates_distinct_inline_specs(self):
        a = self.city_cell({"hosts": 16, "regions": 4})
        b = self.city_cell({"hosts": 16, "regions": 4, "messages": 4})
        assert cache_key(a) != cache_key(b)

    def test_preset_and_its_expansion_share_a_topology_digest(self):
        from repro.hw.generate import CITY_PRESETS, topology_digest

        assert topology_digest("smoke64") \
            == topology_digest(dict(CITY_PRESETS["smoke64"]))

    def test_key_uses_the_spec_profile_not_local(self):
        """bench.city cells carry no params['profile']; the key must hash
        the profile the city actually runs on (from the spec, default
        'cloud'), not the 'local' fallback."""
        cell = self.city_cell()
        assert cache_key(cell) == cache_key(cell, profile=PROFILES["cloud"])
        assert cache_key(cell) != cache_key(cell, profile=PROFILES["local"])


class TestCacheStore:
    def test_put_then_get_roundtrips(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        cell = make_cell("test.echo", value=1, seed=0)
        key = cache_key(cell)
        cache.put(key, cell, {"answer": 42})
        entry = cache.get(key)
        assert entry["payload"] == {"answer": 42}
        assert entry["cell"] == cell
        assert cache.stats()["stores"] == 1

    def test_missing_and_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        cell = make_cell("test.echo", value=1, seed=0)
        key = cache_key(cell)
        assert cache.get(key) is None
        path = cache.path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("{truncated")
        assert cache.get(key) is None
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 2

    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_malformed_entries_are_misses_the_sweep_overwrites(self, tmp_path,
                                                              shape):
        cells = echo_cells(2)
        cold = SweepExecutor(workers=1).run(cells)
        cache = ResultCache(root=str(tmp_path))
        for cell in cells:
            key = cache_key(cell)
            path = cache.path(key)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as handle:
                json.dump(MALFORMED[shape](key), handle)
        warm = SweepExecutor(workers=1, cache=cache).run(cells)
        assert warm.cache_hits == 0
        assert warm.executed == 2
        assert cache.stats()["misses"] == 2
        assert warm.merged_digest() == cold.merged_digest()
        # the recomputed cells overwrote the malformed files
        hot = SweepExecutor(workers=1, cache=ResultCache(str(tmp_path))).run(
            cells)
        assert hot.cache_hits == 2
        assert hot.merged_digest() == cold.merged_digest()

    def test_entries_are_sharded_json_files(self, tmp_path):
        cache = ResultCache(root=str(tmp_path))
        cell = make_cell("test.echo", value=1, seed=0)
        key = cache_key(cell)
        cache.put(key, cell, {"x": 1})
        path = cache.path(key)
        assert path.startswith(os.path.join(str(tmp_path), key[:2]))
        with open(path) as handle:
            assert json.load(handle)["key"] == key


class TestExecutorCaching:
    def test_hit_skips_execution_entirely(self, tmp_path):
        cells = echo_cells(3)
        first = SweepExecutor(workers=1, cache=ResultCache(str(tmp_path))).run(cells)
        assert first.executed == 3
        assert first.cache_hits == 0
        assert len(helpers.EXECUTIONS) == 3
        second = SweepExecutor(workers=1, cache=ResultCache(str(tmp_path))).run(cells)
        assert second.executed == 0
        assert second.cache_hits == 3
        assert second.hit_rate() == 1.0
        assert len(helpers.EXECUTIONS) == 3          # no re-execution
        assert first.merged_digest() == second.merged_digest()
        assert all(r.cached for r in second.results)

    def test_no_cache_forces_recompute(self, tmp_path):
        cells = echo_cells(2)
        SweepExecutor(workers=1, cache=ResultCache(str(tmp_path))).run(cells)
        assert len(helpers.EXECUTIONS) == 2
        # cache=None is the --no-cache surface: everything re-executes
        again = SweepExecutor(workers=1, cache=None).run(cells)
        assert again.executed == 2
        assert len(helpers.EXECUTIONS) == 4

    def test_partial_hits_merge_with_fresh_results(self, tmp_path):
        cache_root = str(tmp_path)
        SweepExecutor(workers=1, cache=ResultCache(cache_root)).run(echo_cells(2))
        mixed = SweepExecutor(workers=1, cache=ResultCache(cache_root)).run(
            echo_cells(4)
        )
        assert mixed.cache_hits == 2
        assert mixed.executed == 2
        flags = {r.cell["params"]["value"]: r.cached for r in mixed.results}
        assert flags == {0: True, 1: True, 2: False, 3: False}

    def test_cached_and_fresh_digests_agree_across_worker_counts(self, tmp_path):
        cells = echo_cells(3)
        fresh = SweepExecutor(workers=1).run(cells)
        warm = SweepExecutor(workers=2, cache=ResultCache(str(tmp_path))).run(cells)
        hot = SweepExecutor(workers=2, cache=ResultCache(str(tmp_path))).run(cells)
        assert fresh.merged_digest() == warm.merged_digest() == hot.merged_digest()
        assert hot.cache_hits == 3

    @pytest.mark.parametrize("workers", [1, 2])
    def test_finished_cells_survive_a_raising_cell(self, tmp_path, workers):
        """The cells that finished before a raising cell are on disk: a
        rerun without the bad cell is all cache hits."""
        delay_s = 0.0 if workers == 1 else 1.0
        cells = [make_cell("test.failing", value=v, seed=0, delay_s=delay_s)
                 for v in range(3)]
        assert cells[-1]["params"]["value"] == helpers.FAILING_VALUE
        with pytest.raises(RuntimeError, match="fails"):
            SweepExecutor(workers=workers,
                          cache=ResultCache(str(tmp_path))).run(cells)
        rerun = SweepExecutor(workers=1, cache=ResultCache(str(tmp_path))).run(
            cells[:-1]
        )
        assert rerun.cache_hits == 2
        assert rerun.executed == 0
