"""Benchmark harness: workload drivers, statistics, and table formatting.

One function per paper experiment lives in :mod:`repro.bench.runner`; the
``benchmarks/`` directory and the ``insane bench`` CLI both call into it, so
every table and figure of the paper is regenerated by exactly one code
path.
"""

from repro.bench.harness import (
    SYSTEMS,
    InsaneBenchApp,
    make_system,
    make_testbed,
    run_multisink,
    run_pingpong,
    run_throughput,
)

__all__ = [
    "InsaneBenchApp",
    "SYSTEMS",
    "make_system",
    "make_testbed",
    "run_multisink",
    "run_pingpong",
    "run_throughput",
]
