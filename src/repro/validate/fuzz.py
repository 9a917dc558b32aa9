"""Seeded property fuzzer with a greedy spec shrinker.

The fuzzer (:func:`repro.validate.parallel.parallel_fuzz`) draws random
workload specs (biased, via :func:`~repro.validate.workloads.random_spec`,
toward failover edge cases: restore-before-detect windows and
zero-survivor stranding), runs each on the fast engine, and checks every
invariant in :mod:`repro.validate.properties` (:func:`check_spec`).
Optionally it also cross-checks the two engines differentially per spec.

A failing spec is handed to :func:`shrink`, which greedily simplifies it —
fewer messages, one sink, smaller payloads, plainer QoS, the local profile
— keeping only simplifications that still reproduce a violation.  The
result is a compact repro spec whose JSON form drops straight into a
regression test.
"""

from dataclasses import replace

from repro.validate.differential import compare_spec
from repro.validate.properties import check_run
from repro.validate.workloads import run_spec


def check_spec(spec, differential=False):
    """Violations for one spec: property checks, plus the oracle if asked."""
    result = run_spec(spec)
    violations = list(check_run(result))
    if differential:
        divergence, _fast, _legacy = compare_spec(spec)
        if divergence is not None:
            violations.append("engine divergence: %s" % divergence.report())
    return violations


def shrink(spec, check=None, max_steps=40):
    """Greedily minimize ``spec`` while ``check(spec)`` stays non-empty.

    ``check`` defaults to the property checks on the fast engine.  Each
    round proposes one simplification; a proposal is kept only if the
    simplified spec still fails.  Stops at a fixpoint (or ``max_steps``).
    Returns ``(shrunk_spec, violations_of_shrunk)``.
    """
    if check is None:
        check = check_spec
    violations = check(spec)
    if not violations:
        return spec, []
    steps = 0
    improved = True
    while improved and steps < max_steps:
        improved = False
        for candidate in _candidates(spec):
            steps += 1
            try:
                candidate_violations = check(candidate)
            except Exception as exc:  # a shrink must never mask the bug
                candidate_violations = ["shrink candidate crashed: %r" % exc]
            if candidate_violations:
                spec, violations = candidate, candidate_violations
                improved = True
                break
            if steps >= max_steps:
                break
    return spec, violations


def _candidates(spec):
    """Simplification proposals, most aggressive first."""
    if spec.messages > 5:
        yield replace(spec, messages=max(5, spec.messages // 2))
    if spec.messages > 5:
        yield replace(spec, messages=spec.messages - 1)
    if spec.sinks > 1:
        yield replace(spec, sinks=1)
    if spec.size > 32:
        yield replace(spec, size=32)
    if spec.profile != "local":
        yield replace(spec, profile="local")
    if spec.time_sensitive:
        yield replace(spec, time_sensitive=False)
    if spec.constrained:
        yield replace(spec, constrained=False)
    if spec.fault_plan and spec.fault_plan[0] == "random":
        faults = spec.fault_plan[2]
        if faults > 1:
            yield replace(
                spec,
                fault_plan=("random", spec.fault_plan[1], faults - 1),
            )
    if spec.fault_plan:
        yield replace(spec, fault_plan=())
    if spec.kind == "pingpong":
        yield replace(spec, kind="stream")
