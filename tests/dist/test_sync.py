"""Conservative-sync partitioned execution: the bit-identical contract.

The headline assertion of :mod:`repro.dist`: running a generated city cut
across partitions — in-process or across real worker processes — produces
the *same* merged record digest as the serial run, bit for bit.  Everything
else here guards the mechanisms that make that possible: a provable
simulation horizon and a merge that refuses to paper over overlapping
counters.
"""

import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import (
    check_partition_equivalence,
    merge_partition_records,
    run_city_cell,
    run_city_partitioned,
    run_city_serial,
)
from repro.dist.partition import partition_regions
from repro.dist.sync import PartitionRunner, _city_worker, city_end_of_time
from repro.hw.generate import DATAPATH_STAGES, resolve_topology

TINY = {"hosts": 16, "regions": 4, "messages": 2, "seed": 11}

#: the acceptance-scale city: >= 256 edge hosts across 8 regions,
#: trimmed to 2 messages per flow so the process-transport run stays
#: test-suite fast.
ACCEPTANCE = {"hosts": 256, "regions": 8, "messages": 2, "seed": 3}


def serial(spec):
    return run_city_serial(resolve_topology(spec))


class TestInlineEquivalence:
    def test_partitioned_digests_match_serial(self):
        reference = serial(TINY)
        assert reference["events"] > 0
        for partitions in (2, 3, 4):
            run = run_city_partitioned(resolve_topology(TINY), partitions,
                                       transport="inline")
            assert run["digest"] == reference["digest"], \
                "diverged at %d partitions" % partitions
            assert run["partitions"] == partitions

    def test_single_partition_request_is_the_serial_run(self):
        run = run_city_partitioned(resolve_topology(TINY), 1)
        assert run["transport"] == "serial"
        assert run["digest"] == serial(TINY)["digest"]

    def test_checker_reports_clean(self):
        problems, details = check_partition_equivalence(
            TINY, partitions=(2, 4), transport="inline"
        )
        assert problems == []
        assert details["serial"]["digest"]
        assert len(details["partitioned"]) == 2

    def test_different_seeds_give_different_digests(self):
        assert serial(TINY)["digest"] \
            != serial(dict(TINY, seed=12))["digest"]


#: a fabric delay: zero (legal) or up to a few microseconds
DELAYS = st.one_of(st.just(0.0), st.floats(1.0, 5_000.0))


@st.composite
def small_cities(draw):
    regions = draw(st.integers(3, 5))
    return resolve_topology({
        "hosts": draw(st.integers(2 * regions, 4 * regions)),
        "regions": regions,
        "classes": draw(st.integers(1, 3)),
        "flows_per_host": draw(st.integers(1, 2)),
        "messages": draw(st.integers(1, 3)),
        "rpc_every": draw(st.integers(0, 3)),
        "datapath": draw(st.sampled_from(sorted(DATAPATH_STAGES))),
        "interval_ns": draw(st.floats(1_000.0, 40_000.0)),
        "trunk_propagation_ns": draw(st.floats(5_000.0, 30_000.0)),
        "access_propagation_ns": draw(st.floats(1.0, 2_000.0)),
        "tor_forward_ns": draw(DELAYS),
        "core_forward_ns": draw(DELAYS),
        "service_ns": draw(DELAYS),
        "seed": draw(st.integers(0, 2 ** 16)),
    })


class TestRandomCities:
    @settings(max_examples=15, deadline=None)
    @given(spec=small_cities())
    def test_inline_partitions_match_serial(self, spec):
        """Boundary frames are injected straight into the core's
        forwarding, so every cut must still merge to the serial digest."""
        reference = run_city_serial(spec)
        for partitions in (2, 3):
            run = run_city_partitioned(spec, partitions, transport="inline")
            assert run["digest"] == reference["digest"], \
                "diverged at %d partitions" % partitions
            assert run["events"] == reference["events"]


class TestProcessTransportAcceptance:
    def test_256_hosts_across_4_worker_processes_match_serial(self):
        """The issue's acceptance bar: a >= 256-node generated city runs
        partitioned across >= 4 real worker processes and the merged
        digest equals the serial run's, bit for bit."""
        spec = resolve_topology(ACCEPTANCE)
        reference = run_city_serial(spec)
        run = run_city_partitioned(spec, 4, transport="process")
        assert run["transport"] == "process"
        assert len(run["per_partition"]) == 4
        assert all(meta["events"] > 0 for meta in run["per_partition"])
        assert run["digest"] == reference["digest"]
        assert run["events"] == reference["events"]


class TestDeadWorker:
    def test_a_worker_that_dies_is_named_with_its_exit_code(self,
                                                            monkeypatch):
        """A worker that exits without reporting fails the run at once,
        naming its partition and exit code, instead of after the 240 s
        silence bound."""
        def dying_worker(spec, index, *args):
            if index == 1:
                os._exit(3)
            _city_worker(spec, index, *args)

        monkeypatch.setattr("repro.dist.sync._city_worker", dying_worker)
        started = time.monotonic()
        with pytest.raises(RuntimeError,
                           match=r"partition p1 died before reporting "
                                 r"\(exit code 3\)"):
            run_city_partitioned(resolve_topology(TINY), 2,
                                 transport="process", mp_context="fork")
        assert time.monotonic() - started < 10


class TestMerge:
    def test_overlapping_counters_refuse_to_merge(self):
        part = {"deliveries": [], "counters": {"tor0.forwarded": 1},
                "core_forwarded": 0}
        with pytest.raises(RuntimeError):
            merge_partition_records([part, dict(part)])

    def test_disjoint_counters_union_and_core_sums(self):
        a = {"deliveries": [[0, 0, 5.0]], "counters": {"tor0.forwarded": 2},
             "core_forwarded": 1}
        b = {"deliveries": [[1, 0, 3.0]], "counters": {"tor1.forwarded": 4},
             "core_forwarded": 2}
        merged = merge_partition_records([a, b])
        assert merged["counters"] == {"tor0.forwarded": 2,
                                      "tor1.forwarded": 4}
        assert merged["core_forwarded"] == 3
        assert merged["deliveries"] == [[0, 0, 5.0], [1, 0, 3.0]]


class TestHorizon:
    def test_end_of_time_bounds_the_last_event(self):
        spec = resolve_topology(TINY)
        assert serial(TINY)["now"] < city_end_of_time(spec)

    def test_horizon_scales_with_workload(self):
        short = resolve_topology(TINY)
        long = resolve_topology(dict(TINY, messages=64))
        assert city_end_of_time(long) > city_end_of_time(short)


class TestStallReport:
    def test_a_blocked_partition_reports_its_clocks(self):
        spec = resolve_topology(TINY)
        runner = PartitionRunner(spec, 0,
                                 partition_regions(spec["regions"], 2))
        runner.flush(lambda peer, message: None)
        runner.receive(1, (5_000.0, []))
        runner.advance()
        assert not runner.can_advance()
        text = runner.describe_stall(1)
        assert "partition 0: now %.1f ns" % runner.sim.now in text
        assert "next event %.1f ns" % runner.sim.peek() in text
        assert "safe 5000.0 ns" in text
        assert "partition 1 last announced 5000.0 ns" in text
        assert "we last announced 20000.0 ns to it" in text


class TestCityCell:
    def test_cell_payload_shape_and_full_delivery(self):
        payload = run_city_cell(topology=dict(TINY), partitions=2, seed=11)
        assert payload["topology"] == "custom"
        assert payload["transport"] == "inline"
        assert payload["delivered"] == payload["expected"]
        assert payload["delivery_ratio"] == 1.0
        assert payload["latency"]["count"] > 0
        assert payload["digest"] == serial(TINY)["digest"]

    def test_cell_seed_param_overrides_the_spec(self):
        a = run_city_cell(topology=dict(TINY), partitions=1, seed=11)
        b = run_city_cell(topology=dict(TINY), partitions=1, seed=99)
        assert a["digest"] != b["digest"]
