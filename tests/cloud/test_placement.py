"""RegionPlacer: deterministic least-loaded, acceleration-aware placement."""

import pytest

from repro.cloud import RegionPlacer
from repro.cloud.placement import least_loaded
from repro.core.errors import TopologyError


def hosts(*names, accelerated=()):
    return [{"name": name, "accelerated": name in accelerated}
            for name in names]


class TestPlacement:
    def test_least_loaded_wins(self):
        placer = RegionPlacer()
        pool = hosts("a", "b", accelerated=("a", "b"))
        first = placer.place("svc-0", pool)
        second = placer.place("svc-1", pool)
        assert {first["name"], second["name"]} == {"a", "b"}

    def test_ties_break_by_name(self):
        placer = RegionPlacer()
        pool = hosts("zeta", "alpha")
        assert placer.place("svc", pool)["name"] == "alpha"

    def test_order_independent(self):
        pool = hosts("c", "a", "b")
        forward = RegionPlacer().place("svc", pool)
        backward = RegionPlacer().place("svc", list(reversed(pool)))
        assert forward["name"] == backward["name"]

    def test_acceleration_requirement_filters(self):
        placer = RegionPlacer()
        pool = hosts("a", "b", accelerated=("b",))
        chosen = placer.place("svc", pool, requires_acceleration=True)
        assert chosen["name"] == "b"

    def test_no_eligible_host_is_a_build_error(self):
        placer = RegionPlacer()
        with pytest.raises(TopologyError):
            placer.place("svc", hosts("a"), requires_acceleration=True)

    def test_capacity_bounds_placements(self):
        placer = RegionPlacer(capacity_per_host=1)
        pool = hosts("a")
        placer.place("svc-0", pool)
        with pytest.raises(TopologyError):
            placer.place("svc-1", pool)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            RegionPlacer(capacity_per_host=0)

    def test_placements_reports_load(self):
        placer = RegionPlacer()
        pool = hosts("a", "b")
        placer.place("svc-0", pool)
        placer.place("svc-1", pool)
        placer.place("svc-2", pool)
        assert sum(placer.placements().values()) == 3
        assert max(placer.placements().values()) == 2


class TestLeastLoadedPolicy:
    """The one policy both placers call (the orchestrator passes its
    nodes in deployment order, the region placer sorted by name)."""

    def test_ties_go_to_the_earliest_candidate(self):
        load = {"b": 0, "a": 0, "c": 1}.get
        assert least_loaded(["b", "a", "c"], load, 4, False,
                            lambda _c: False) == "b"

    def test_full_and_unaccelerated_candidates_are_ineligible(self):
        load = {"a": 2, "b": 0, "c": 1}.get
        accelerated = {"a": True, "b": False, "c": True}.get
        assert least_loaded(["a", "b", "c"], load, 2, True,
                            accelerated) == "c"
        assert least_loaded(["a", "b"], load, 2, True, accelerated) is None
