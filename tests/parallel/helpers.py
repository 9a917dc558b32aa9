"""Worker-importable cell runners for the parallel-executor tests.

These live in a real module (not a test file) so spawn-started workers
can import them by the ``"tests.parallel.helpers:<fn>"`` registry target.
"""

import os
import random
import time

#: in-process execution counter — only meaningful for workers=1 runs,
#: where cells execute in the parent interpreter.
EXECUTIONS = []


def echo_cell(value=0, seed=0, draws=4):
    """Deterministic payload from (value, seed); records each execution."""
    EXECUTIONS.append(("echo", value, seed))
    rng = random.Random(seed)
    return {
        "value": value,
        "seed": seed,
        "draws": [rng.randrange(1_000_000) for _ in range(draws)],
    }


def rng_stream_cell(seed=0, draws=8):
    """Expose the raw rng stream a cell observes, plus process identity.

    The regression this backs: two cells must never interleave or share
    rng state — each derives its own ``random.Random(seed)`` — so the
    draws are a pure function of the seed, not of the worker process,
    execution order, or sibling cells.
    """
    rng = random.Random(seed)
    return {
        "seed": seed,
        "pid": os.getpid(),
        "draws": [rng.randrange(1 << 30) for _ in range(draws)],
    }


#: the one value :func:`failing_cell` raises for
FAILING_VALUE = 2


def failing_cell(value=0, seed=0, delay_s=0.0):
    """:func:`echo_cell`, except that :data:`FAILING_VALUE` raises after
    ``delay_s`` seconds of wall time (so parallel siblings finish first)."""
    if value == FAILING_VALUE:
        time.sleep(delay_s)
        raise RuntimeError("cell value=%d fails" % value)
    return echo_cell(value=value, seed=seed)
