"""Differential validation and property testing for the simulation stack.

The reproduction's headline claims rest on two correctness contracts:

* the overhauled :class:`repro.simnet.Simulator` is *bit-identical* to the
  preserved pre-overhaul :class:`repro.simnet.legacy.LegacySimulator` when
  both drive the same application stack; and
* the fault/failover machinery preserves the invariants of the calibrated
  cost model (packet conservation, FIFO delivery, QoS-respecting mapping,
  exactly-once failure detection).

This package makes both contracts continuously checkable:

:mod:`repro.validate.canonical`
    :class:`TraceProbe` captures a canonical event stream (wire frames,
    datapath charges, process spawns, emits, deliveries, fault events)
    from a live testbed, independent of which engine drives it.
:mod:`repro.validate.workloads`
    Seeded random workload specs (:class:`WorkloadSpec`) and the driver
    that runs one spec on either engine and returns its canonical trace
    plus an accounting ledger.
:mod:`repro.validate.differential`
    The differential oracle: same spec on both engines, first-divergence
    reporting with a minimal reproducer.
:mod:`repro.validate.properties`
    Invariant checkers over a run's ledger: conservation, FIFO and
    duplicate-freedom, QoS-mapping monotonicity, fault-epoch
    exactly-once detection, time monotonicity.
:mod:`repro.validate.fuzz`
    A seeded fuzzer over specs (biased toward failover edge cases) with a
    greedy shrinker that reduces failures to a compact repro spec.
:mod:`repro.validate.golden`
    The pinned golden-trace corpus under ``tests/golden/`` and its
    regeneration tool (refuses to overwrite without ``--force``).
:mod:`repro.validate.parallel`
    Parallel fan-out of fuzz batches and differential sweeps via
    :mod:`repro.parallel`, plus the executor's own checker
    (serial-vs-parallel merged-digest equality).

Everything is exposed on the command line as ``insane validate`` (see
:mod:`repro.validate.cli`) and as the pytest suites under
``tests/validate/`` and ``tests/golden/``.
"""

from repro.validate.canonical import CanonicalTrace, TraceProbe
from repro.validate.differential import Divergence, run_differential
from repro.validate.fuzz import FuzzFailure, fuzz, shrink
from repro.validate.golden import (
    check_corpus,
    compute_corpus,
    corpus_path,
    regenerate_corpus,
)
from repro.validate.parallel import (
    check_parallel_equivalence,
    parallel_differential,
    parallel_fuzz,
)
from repro.validate.properties import check_run, property_report
from repro.validate.workloads import RunResult, WorkloadSpec, random_spec, run_spec

__all__ = [
    "CanonicalTrace",
    "Divergence",
    "FuzzFailure",
    "RunResult",
    "TraceProbe",
    "WorkloadSpec",
    "check_corpus",
    "check_parallel_equivalence",
    "check_run",
    "compute_corpus",
    "corpus_path",
    "fuzz",
    "parallel_differential",
    "parallel_fuzz",
    "property_report",
    "random_spec",
    "regenerate_corpus",
    "run_differential",
    "run_spec",
    "shrink",
]
