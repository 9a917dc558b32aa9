"""The validation sweeps on the sweep executor, plus its own checker.

Fuzz batches and differential-oracle sweeps are embarrassingly parallel —
every spec builds its own simulator pair — so they run one cell per spec
through :mod:`repro.parallel`, which runs them inline at ``workers=1``.
:func:`parallel_differential` and :func:`parallel_fuzz` are the only
drivers of the two checks: ``insane validate differential|fuzz`` and
``insane bench validate`` all go through them.  The cell payloads carry
the canonical trace digests, which makes *the executor itself*
checkable: a serial run and a parallel run of the same cells must
produce identical merged digests (:func:`check_parallel_equivalence`),
closing the loop on the determinism contract the kernel already
guarantees per-simulation.
"""

import json

from repro.parallel.cells import make_cell
from repro.parallel.executor import SweepExecutor
from repro.validate.workloads import random_spec, run_spec


# -- worker-side cell runners -------------------------------------------------

def run_fuzz_cell(seed, differential=False, do_shrink=True):
    """One fuzzed spec: draw, run, check, shrink on failure.

    The payload embeds the canonical trace digest, so a fuzz batch's
    merged digest doubles as a corpus digest for serial-vs-parallel
    equivalence checks.
    """
    from repro.validate.differential import compare_spec
    from repro.validate.fuzz import check_spec, shrink
    from repro.validate.properties import check_run

    spec = random_spec(seed)
    result = run_spec(spec)
    violations = list(check_run(result))
    if differential:
        divergence, _fast, _legacy = compare_spec(spec)
        if divergence is not None:
            violations.append("engine divergence: %s" % divergence.report())
    payload = {
        "seed": seed,
        "spec": json.loads(spec.to_json()),
        "digest": result.trace.digest(),
        "events": len(result.trace),
        "emitted": result.ledger["emitted"],
        "violations": violations,
    }
    if violations and do_shrink:
        shrunk, shrunk_violations = shrink(
            spec, check=lambda s: check_spec(s, differential=differential)
        )
        payload["shrunk"] = json.loads(shrunk.to_json())
        payload["shrunk_violations"] = shrunk_violations
    return payload


def run_differential_cell(seed, perturb=None):
    """One differential-oracle spec: fast vs legacy engine, bit for bit."""
    from repro.validate.differential import compare_spec

    spec = random_spec(seed)
    divergence, fast, legacy = compare_spec(spec, perturb=perturb)
    return {
        "seed": seed,
        "spec": json.loads(spec.to_json()),
        "diverged": divergence is not None,
        "report": divergence.report() if divergence is not None else None,
        "fast_digest": fast.trace.digest(),
        "legacy_digest": legacy.trace.digest(),
        "events": len(fast.trace),
        "emitted": fast.ledger["emitted"],
    }


# -- cell builders ------------------------------------------------------------

def fuzz_cells(seed=0, n=25, differential=False, do_shrink=True):
    return [
        make_cell("validate.fuzz", seed=seed + index,
                  differential=differential, do_shrink=do_shrink)
        for index in range(n)
    ]


def differential_cells(seed=0, n=50, perturb=None):
    cells = []
    for index in range(n):
        params = {"seed": seed + index}
        if perturb is not None:
            params["perturb"] = perturb
        cells.append(make_cell("validate.differential", **params))
    return cells


# -- parallel drivers ---------------------------------------------------------

def parallel_fuzz(seed=0, n=25, workers=1, differential=False,
                  do_shrink=True, cache=None, progress=None):
    """Fan a fuzz batch out over workers; returns ``(checked, failures, sweep)``.

    ``failures`` is the list of failing cell payloads, in cell-key order
    (deterministic regardless of worker count).
    """
    cells = fuzz_cells(seed=seed, n=n, differential=differential,
                       do_shrink=do_shrink)
    sweep = SweepExecutor(workers=workers, cache=cache).run(cells)
    failures = [
        result.payload for result in sweep.results
        if result.payload["violations"]
    ]
    if progress is not None:
        for index, result in enumerate(sweep.results):
            payload = result.payload
            progress("[%d/%d] seed=%d %s %s" % (
                index + 1, n, payload["seed"], payload["spec"]["kind"],
                "FAILED" if payload["violations"] else "ok",
            ))
    return len(sweep.results), failures, sweep


def parallel_differential(seed=0, n=50, workers=1, perturb=None, cache=None,
                          progress=None):
    """Fan the differential oracle out; returns ``(checked, diverged, sweep)``.

    Every one of the ``n`` specs is checked, divergent or not; ``diverged``
    is the list of divergent cell payloads, in cell-key order.
    """
    cells = differential_cells(seed=seed, n=n, perturb=perturb)
    sweep = SweepExecutor(workers=workers, cache=cache).run(cells)
    diverged = [
        result.payload for result in sweep.results if result.payload["diverged"]
    ]
    if progress is not None:
        for index, result in enumerate(sweep.results):
            payload = result.payload
            progress("[%d/%d] seed=%d %s (%d events, %d emitted) %s" % (
                index + 1, n, payload["seed"], payload["spec"]["kind"],
                payload["events"], payload["emitted"],
                "DIVERGED" if payload["diverged"] else "ok",
            ))
    return len(sweep.results), diverged, sweep


# -- sweep -> RunReport folds -------------------------------------------------

#: report kind -> (the payload flag marking a bad cell, the data key
#: listing the bad cells' seeds)
_SWEEP_VERDICTS = {
    "validate.fuzz": ("violations", "failed_seeds"),
    "validate.differential": ("diverged", "diverged_seeds"),
}


def sweep_report(kind, sweep):
    """Fold a fuzz or differential sweep into a ``kind`` RunReport.

    ``data`` (digest-compared) carries the verdict and the executor's
    merged digest; worker count and cache hits are provenance and live in
    non-compared ``meta``.
    """
    from repro.report import RunReport

    flag, seeds_key = _SWEEP_VERDICTS[kind]
    payloads = [result.payload for result in sweep.results]
    bad = sorted(p["seed"] for p in payloads if p[flag])
    return RunReport(
        kind=kind,
        data={
            "checked": len(payloads),
            seeds_key: bad,
            "merged_digest": sweep.merged_digest(),
            "ok": not bad,
        },
        meta={"workers": sweep.workers, "executed": sweep.executed,
              "cache_hits": sweep.cache_hits},
    )


# -- the executor's own checker -----------------------------------------------

def equivalence_cells(seed=0, n=4):
    """A small mixed cell set exercising bench and validate runners."""
    cells = fuzz_cells(seed=seed, n=n)
    # a few throughput points keep the bench runners honest too
    for system in ("insane_fast", "udp_nonblocking"):
        cells.append(make_cell("bench.throughput", system=system,
                               messages=400, size=256, seed=seed))
    return cells


def compare_sweeps(reference, candidate):
    """Cell-by-cell and digest comparison of two sweep results.

    Returns a problem list (empty == identical merge: same keys, same
    payloads, same merged digest).
    """
    problems = []
    for s, p in zip(reference.results, candidate.results):
        if s.key != p.key:
            problems.append("merge order differs: %s vs %s" % (s.key, p.key))
        elif s.payload != p.payload:
            problems.append("payload differs for cell %s" % s.key)
    if len(reference.results) != len(candidate.results):
        problems.append(
            "cell count differs: %d vs %d"
            % (len(reference.results), len(candidate.results))
        )
    if reference.merged_digest() != candidate.merged_digest():
        problems.append(
            "merged digest differs: %s (%d worker(s)) vs %s (%d worker(s))"
            % (reference.merged_digest(), reference.workers,
               candidate.merged_digest(), candidate.workers)
        )
    return problems


def check_parallel_equivalence(seed=0, n=4, workers=2, cells=None):
    """Serial vs parallel execution of the same cells; returns problems.

    Empty list == the sweep executor kept the determinism contract: the
    merged digests (and every individual payload) are identical at
    ``workers=1`` and ``workers=N``.
    """
    cells = cells if cells is not None else equivalence_cells(seed=seed, n=n)
    serial = SweepExecutor(workers=1).run(cells)
    parallel = SweepExecutor(workers=workers).run(cells)
    return compare_sweeps(serial, parallel)


def format_fuzz_failure(payload):
    """A fuzz-cell failure payload as a report: the failing spec, the
    shrunk repro spec and its violations."""
    lines = [
        "PROPERTY VIOLATION seed=%d" % payload["seed"],
        "  spec JSON: %s" % json.dumps(payload["spec"], sort_keys=True),
    ]
    if payload.get("shrunk") is not None:
        lines.append(
            "  repro JSON: %s" % json.dumps(payload["shrunk"], sort_keys=True)
        )
    for violation in payload.get("shrunk_violations") or payload["violations"]:
        lines.append("  - %s" % violation)
    return "\n".join(lines)
