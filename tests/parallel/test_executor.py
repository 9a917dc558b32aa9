"""The sweep executor's determinism contract, end to end.

The headline assertions: the same cell set produces identical payloads,
identical merge order, and identical merged digests at ``workers=1`` and
``workers=N`` — for a real fig8a throughput sub-grid and for a seeded
fuzz batch — and per-cell isolation holds (derived seeds, rng streams,
per-simulation ids) no matter which process runs a cell or in what order.
"""

import pytest

from repro.core import QosPolicy, Session
from repro.core.metrics import export_deployment
from repro.core.runtime import InsaneDeployment
from repro.hw import Testbed
from repro.parallel import (
    SweepExecutor,
    cell_key,
    derive_seed,
    make_cell,
    register_cell_kind,
    run_cell,
    run_sweep,
)
from repro.simnet import Timeout
from repro.simnet.cell import CELL_RUNNERS
from repro.trace import WireTap
from tests.parallel import helpers


@pytest.fixture(autouse=True)
def _test_kinds():
    """Register the helper kinds; restore the registry afterwards."""
    saved = dict(CELL_RUNNERS)
    register_cell_kind("test.echo", "tests.parallel.helpers:echo_cell")
    register_cell_kind("test.rng", "tests.parallel.helpers:rng_stream_cell")
    helpers.EXECUTIONS.clear()
    yield
    CELL_RUNNERS.clear()
    CELL_RUNNERS.update(saved)


def paced_deployment(seed, messages=20, gap_ns=10_000.0):
    """Two unnamed sessions, one fast paced stream, every link tapped.

    Returns ``(sim, tap, deployment)``; the caller drives ``sim``.
    """
    bed = Testbed.local(seed=seed)
    tap = WireTap().attach_all(bed)
    deployment = InsaneDeployment(bed)
    tx = Session(deployment.runtime(0))
    rx = Session(deployment.runtime(1))
    source = tx.create_source(tx.create_stream(QosPolicy.fast()), channel=1)
    sink = rx.create_sink(rx.create_stream(QosPolicy.fast()), channel=1)

    def producer():
        for _ in range(messages):
            buffer = yield from tx.get_buffer_wait(source, 64)
            yield from tx.emit_data(source, buffer, length=64)
            yield Timeout(gap_ns)

    def consumer():
        while True:
            delivery = yield from rx.consume_data(sink)
            rx.release_buffer(sink, delivery)

    bed.sim.process(producer(), name="paced.producer")
    bed.sim.process(consumer(), name="paced.consumer")
    return bed.sim, tap, deployment


def fig8a_subgrid(messages=300):
    return [
        make_cell("bench.throughput", system=system, messages=messages,
                  size=size, seed=0)
        for system in ("insane_fast", "udp_nonblocking")
        for size in (256, 1024)
    ]


class TestCellBasics:
    def test_cell_key_is_order_insensitive(self):
        a = {"kind": "test.echo", "params": {"value": 1, "seed": 2}}
        b = {"kind": "test.echo", "params": {"seed": 2, "value": 1}}
        assert cell_key(a) == cell_key(b)

    def test_derive_seed_is_deterministic_and_cell_specific(self):
        a = make_cell("test.echo", value=1)
        b = make_cell("test.echo", value=2)
        assert derive_seed(cell_key(a)) == derive_seed(cell_key(a))
        assert derive_seed(cell_key(a)) != derive_seed(cell_key(b))
        # 63-bit non-negative, spawn-safe as a random.Random seed
        assert 0 <= derive_seed(cell_key(a)) < 1 << 63

    def test_unknown_kind_raises_with_registered_list(self):
        with pytest.raises(KeyError, match="bench.throughput"):
            run_cell({"kind": "no.such.kind", "params": {}})

    def test_missing_seed_is_derived_from_cell_key(self):
        cell = {"kind": "test.echo", "params": {"value": 7}}
        payload = run_cell(cell)
        assert payload["seed"] == derive_seed(cell_key(cell))

    def test_pinned_seed_is_respected(self):
        payload = run_cell(make_cell("test.echo", value=7, seed=1234))
        assert payload["seed"] == 1234


class TestDeterministicMerge:
    def test_results_ordered_by_cell_key_not_submission_order(self):
        cells = [make_cell("test.echo", value=v, seed=0) for v in (3, 1, 2)]
        sweep = run_sweep(cells)
        assert [r.key for r in sweep.results] == sorted(r.key for r in sweep.results)

    def test_duplicate_cells_execute_once(self):
        cell = make_cell("test.echo", value=5, seed=0)
        sweep = run_sweep([cell, dict(cell), cell])
        assert len(sweep.results) == 1
        assert sweep.executed == 1
        assert len(helpers.EXECUTIONS) == 1

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=0)


class TestSerialParallelEquivalence:
    def test_fig8a_subgrid_digest_equal_at_any_worker_count(self):
        cells = fig8a_subgrid()
        serial = SweepExecutor(workers=1).run(cells)
        parallel = SweepExecutor(workers=4).run(cells)
        assert serial.merged_digest() == parallel.merged_digest()
        assert [r.key for r in serial.results] == [r.key for r in parallel.results]
        assert serial.payloads() == parallel.payloads()
        # goodput values are real measurements, not placeholders
        assert all(p["gbps"] > 0 for p in serial.payloads())

    def test_fuzz_batch_corpus_digest_equal_serial_vs_parallel(self):
        from repro.validate.parallel import fuzz_cells

        cells = fuzz_cells(seed=0, n=4, do_shrink=False)
        serial = SweepExecutor(workers=1).run(cells)
        parallel = SweepExecutor(workers=2).run(cells)
        assert serial.merged_digest() == parallel.merged_digest()
        # every payload embeds the canonical trace digest: compare directly
        assert [p["digest"] for p in serial.payloads()] == [
            p["digest"] for p in parallel.payloads()
        ]

    def test_check_parallel_equivalence_reports_no_problems(self):
        from repro.validate.parallel import check_parallel_equivalence

        assert check_parallel_equivalence(seed=0, n=2, workers=2) == []

    def test_compare_sweeps_flags_divergent_payloads(self):
        from repro.validate.parallel import compare_sweeps

        cells = [make_cell("test.echo", value=v, seed=0) for v in (1, 2)]
        a = run_sweep(cells)
        b = run_sweep(cells)
        b.results[0].payload = {"tampered": True}
        problems = compare_sweeps(a, b)
        assert any("payload differs" in p for p in problems)
        assert any("digest differs" in p for p in problems)


class TestProcessIsolation:
    def test_rng_streams_are_pure_functions_of_the_cell(self):
        """Two workers with different cells never interleave rng streams."""
        cells = [make_cell("test.rng", seed=seed) for seed in (11, 22, 33, 44)]
        serial = SweepExecutor(workers=1).run(cells)
        parallel = SweepExecutor(workers=4).run(cells)
        for s, p in zip(serial.results, parallel.results):
            assert s.payload["draws"] == p.payload["draws"]
        # distinct seeds ⇒ distinct streams (no shared module-level rng)
        streams = [tuple(r.payload["draws"]) for r in serial.results]
        assert len(set(streams)) == len(streams)

    def test_rng_draws_independent_of_sibling_cells(self):
        alone = SweepExecutor(workers=1).run([make_cell("test.rng", seed=7)])
        crowded = SweepExecutor(workers=1).run(
            [make_cell("test.rng", seed=s) for s in (5, 6, 7, 8)]
        )
        by_seed = {r.payload["seed"]: r.payload["draws"] for r in crowded.results}
        assert by_seed[7] == alone.results[0].payload["draws"]

    def test_two_simulators_do_not_see_each_other(self):
        """Two same-seed simulations stepped alternately in 7 us slices
        match a lone run of that seed made earlier in this process:
        packet seqs and session app ids belong to their simulation."""
        lone_sim, lone_tap, lone_deployment = paced_deployment(seed=3)
        lone_sim.run()
        lone_text = export_deployment(lone_deployment)
        assert len(lone_tap) >= 20
        assert 'app="app1"' in lone_text
        runs = [paced_deployment(seed=3), paced_deployment(seed=3)]
        until = 0.0
        while any(sim.peek() is not None for sim, _tap, _dep in runs):
            until += 7_000.0
            for sim, _tap, _deployment in runs:
                sim.run(until=until)
        for _sim, tap, deployment in runs:
            assert tap.records == lone_tap.records
            assert export_deployment(deployment) == lone_text

    def test_runtime_registrations_reach_spawned_workers(self):
        """Kinds registered after import still run under workers>1."""
        cells = [make_cell("test.echo", value=v, seed=0) for v in (1, 2)]
        sweep = SweepExecutor(workers=2).run(cells)
        assert [r.payload["value"] for r in sweep.results] in ([1, 2], [2, 1])
