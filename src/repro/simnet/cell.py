"""Isolated execution of one experiment *cell*.

A cell is the sharding unit of the parallel sweep executor
(:mod:`repro.parallel`): one independent ``(experiment, parameters)``
point — a single fig5/fig8a/fig8b grid entry, one fault-sweep scenario,
one fuzzed workload spec.  Cells are plain JSON-able dicts::

    {"kind": "bench.throughput",
     "params": {"system": "insane_fast", "size": 1024,
                "messages": 20000, "seed": 0}}

:func:`run_cell` is the single entrypoint every worker process (and the
serial fallback) goes through.  It guarantees *isolation*: each cell gets
a freshly built :class:`~repro.simnet.Simulator`/testbed (every registered
runner constructs its own) and derives any missing seed deterministically
from the cell key.  Everything a simulation draws — its rng stream and
the ids of its packets, sessions and sinks — belongs to that simulator
(``sim.rng``, ``sim.ids``), so there is no process-global state to reset:
a cell's payload is bit-identical whether it runs first or last in a
long-lived worker, in the parent process, or alone.  That property is
what lets the sweep executor promise digest-equal results at any worker
count.

The registry maps cell kinds to ``"module:function"`` strings, resolved
lazily inside the worker — this module never imports the bench or
validate layers, so the kernel stays dependency-free and spawn-started
workers import only what the cell actually needs.
"""

import hashlib
import importlib
import json

#: kind -> "module:function" runner target, resolved lazily per worker.
#: Runner functions take the cell's params as keyword arguments and must
#: return a JSON-serializable payload that is a pure function of those
#: params (plus the code itself) — never of wall-clock time, process
#: identity, or module-level state.
CELL_RUNNERS = {
    "bench.pingpong": "repro.bench.sweep:run_pingpong_cell",
    "bench.throughput": "repro.bench.sweep:run_throughput_cell",
    "bench.multisink": "repro.bench.sweep:run_multisink_cell",
    "bench.loss": "repro.bench.faults:run_loss_cell",
    "validate.differential": "repro.validate.parallel:run_differential_cell",
    "validate.fuzz": "repro.validate.parallel:run_fuzz_cell",
    "scenario.run": "repro.scenario.runner:run_scenario_cell",
    "loadgen.closed_loop": "repro.loadgen.capacity:run_closed_loop_cell",
    "bench.city": "repro.dist.sync:run_city_cell",
}


def register_cell_kind(kind, target):
    """Register (or override) a cell kind.

    ``target`` is a ``"module:function"`` string so the registration is
    picklable and survives the spawn boundary: workers re-resolve it by
    name instead of receiving a function object.
    """
    if ":" not in target:
        raise ValueError("target must be 'module:function', got %r" % (target,))
    CELL_RUNNERS[kind] = target


def cell_key(cell):
    """The canonical identity of a cell: sorted, separator-stable JSON.

    Key order in the params dict does not matter; any non-JSON value is a
    caller bug and raises here, loudly, rather than producing an unstable
    key.
    """
    return json.dumps(cell, sort_keys=True, separators=(",", ":"))


def derive_seed(key):
    """A deterministic 63-bit seed derived from a cell key.

    Workers never share an rng: a cell that does not pin its own ``seed``
    param draws one from the sha256 of its key, so the stream is a pure
    function of the cell — independent of which worker runs it, or in
    what order.
    """
    if not isinstance(key, str):
        key = cell_key(key)
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def run_cell(cell):
    """Execute one cell in isolation and return its JSON-able payload.

    This is the only entrypoint the sweep executor uses, serial or
    parallel, so both paths share the exact same isolation guarantees.
    """
    kind = cell.get("kind")
    target = CELL_RUNNERS.get(kind)
    if target is None:
        raise KeyError(
            "unknown cell kind %r (registered: %s)"
            % (kind, ", ".join(sorted(CELL_RUNNERS)))
        )
    module_name, _, func_name = target.partition(":")
    runner = getattr(importlib.import_module(module_name), func_name)
    params = dict(cell.get("params") or {})
    if "seed" not in params:
        params["seed"] = derive_seed(cell_key(cell))
    return runner(**params)
