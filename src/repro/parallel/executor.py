"""The deterministic parallel sweep executor.

Shards independent experiment cells across worker processes and merges
their payloads into an order that is a pure function of the cells
themselves — **sorted by cell key, never by completion order** — so the
merged report (and any digest over it) is byte-identical at any worker
count.  That invariant, checked end-to-end by
:func:`repro.validate.parallel.check_parallel_equivalence`, is what makes
parallelism safe to turn on: Becker et al. ("Network Emulation in
Large-Scale Virtual Edge Testbeds") document how parallel execution
silently changes results when equivalence is not enforced.

Workers are started with the ``spawn`` method (never ``fork``): each one
imports the package fresh, so no parent-process module state — heaps,
rng, counters — can leak in.  Every cell then goes through
:func:`repro.simnet.cell.run_cell`, which builds an isolated simulator
that owns its rng and ids, so a long-lived worker running many cells
behaves exactly like a fresh process per cell.

Each payload is written to the cache as soon as its cell returns, so a
cell that raises does not take the finished cells down with it: they are
cache hits on the rerun.

An optional :class:`~repro.parallel.cache.ResultCache` short-circuits
cells whose content-addressed key already has a stored payload; cached
and freshly-executed cells are indistinguishable in the merged output.
"""

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from hashlib import sha256
from typing import List

from repro.parallel.cache import cache_key
from repro.simnet.cell import CELL_RUNNERS, cell_key, run_cell


def _execute_cell(cell_json, runners=None):
    """Worker-side entrypoint (module-level so it pickles under spawn).

    ``runners`` is the parent's registry snapshot — spawn-started workers
    import a pristine :data:`~repro.simnet.cell.CELL_RUNNERS`, so kinds
    registered at runtime (tests, plugins) are re-registered here.  The
    snapshot is all strings, so it pickles trivially.
    """
    if runners:
        CELL_RUNNERS.update(runners)
    return run_cell(json.loads(cell_json))


@dataclass
class CellResult:
    """One merged cell: its identity, payload, and provenance."""

    key: str
    cell: dict
    payload: object
    cached: bool


@dataclass
class SweepResult:
    """The deterministic merge of one sweep."""

    results: List[CellResult] = field(default_factory=list)
    workers: int = 1
    executed: int = 0
    cache_hits: int = 0

    def payloads(self):
        """Cell payloads in key order."""
        return [result.payload for result in self.results]

    def merged_digest(self):
        """sha256 over the key-ordered ``(key, payload)`` stream.

        Identical digests at ``workers=1`` and ``workers=N`` is the
        executor's determinism contract; cache hits do not move it.
        """
        h = sha256()
        for result in self.results:
            h.update(result.key.encode())
            h.update(b"\x00")
            h.update(json.dumps(result.payload, sort_keys=True,
                                separators=(",", ":"),
                                default=repr).encode())
            h.update(b"\n")
        return h.hexdigest()

    def hit_rate(self):
        total = len(self.results)
        return self.cache_hits / total if total else 0.0

    def to_report(self, kind="sweep", **meta):
        """The sweep as a :class:`repro.report.RunReport`.

        ``data`` carries the key-ordered cells and the merged digest (the
        digest-compared shape, identical at any worker count); execution
        provenance — worker count, cache hits, per-cell cached flags —
        goes in the non-compared ``meta`` block.
        """
        from repro.report import RunReport

        return RunReport(
            kind=kind,
            data={
                "cells": [
                    {"key": result.key, "payload": result.payload}
                    for result in self.results
                ],
                "merged_digest": self.merged_digest(),
            },
            meta=dict(
                meta,
                workers=self.workers,
                executed=self.executed,
                cache_hits=self.cache_hits,
                cached_keys=sorted(
                    result.key for result in self.results if result.cached
                ),
            ),
        )


class SweepExecutor:
    """Run independent experiment cells, serially or across processes.

    Parameters
    ----------
    workers:
        Process count.  ``1`` (the default) executes inline — same
        :func:`~repro.simnet.cell.run_cell` path, same merge, no pool —
        so the serial run is the reference the parallel run must equal.
    cache:
        Optional :class:`~repro.parallel.cache.ResultCache`; ``None``
        disables caching entirely (the ``--no-cache`` surface).
    """

    def __init__(self, workers=1, cache=None, mp_context="spawn"):
        if workers < 1:
            raise ValueError("workers must be >= 1, got %r" % (workers,))
        self.workers = workers
        self.cache = cache
        self.mp_context = mp_context

    def run(self, cells):
        """Execute ``cells``; returns a :class:`SweepResult` in key order.

        Duplicate cells (same canonical key) are executed once and merged
        once.  Execution order is key order in the serial case and
        completion order in the parallel case — but the *merge* is always
        key order, so the two are indistinguishable from the outside.
        """
        unique = {}
        for cell in cells:
            unique.setdefault(cell_key(cell), cell)
        ordered = sorted(unique.items())

        sweep = SweepResult(workers=self.workers)
        pending = []
        payloads = {}
        cached = {}
        for key, cell in ordered:
            if self.cache is not None:
                entry = self.cache.get(cache_key(cell))
                if entry is not None:
                    payloads[key] = entry["payload"]
                    cached[key] = True
                    sweep.cache_hits += 1
                    continue
            pending.append((key, cell))

        def finished(key, payload):
            payloads[key] = payload
            if self.cache is not None:
                self.cache.put(cache_key(unique[key]), unique[key], payload)

        if pending:
            if self.workers == 1:
                for key, cell in pending:
                    finished(key, run_cell(cell))
            else:
                context = multiprocessing.get_context(self.mp_context)
                runners = dict(CELL_RUNNERS)
                with ProcessPoolExecutor(
                    max_workers=min(self.workers, len(pending)),
                    mp_context=context,
                ) as pool:
                    futures = {
                        pool.submit(_execute_cell, key, runners): key
                        for key, _cell in pending
                    }
                    for future in as_completed(futures):
                        finished(futures[future], future.result())
            sweep.executed += len(pending)

        for key, cell in ordered:
            sweep.results.append(CellResult(
                key=key, cell=cell, payload=payloads[key],
                cached=cached.get(key, False),
            ))
        return sweep


def run_sweep(cells, workers=1, cache=None):
    """One-shot convenience wrapper around :class:`SweepExecutor`."""
    return SweepExecutor(workers=workers, cache=cache).run(cells)
