"""Cell runners and grid builders for the parallel figure sweeps.

The runner functions here are the worker-side targets registered in
:data:`repro.simnet.cell.CELL_RUNNERS`: each takes one grid point's
parameters, executes the same harness call the serial figure loop makes,
and returns a plain-JSON payload.  The grid builders turn the figure
constants (``FIG5_SYSTEMS`` x ``FIG5_SIZES``, ...) into cell lists the
:class:`~repro.parallel.SweepExecutor` can shard.

Payloads are JSON so they survive pickling, caching, and digesting;
:class:`TallyStats` re-wraps a tally payload with the ``.mean`` /
``.median`` attributes the chart renderers and figure benchmarks expect.
"""

from repro.bench import harness
from repro.parallel.cache import ResultCache
from repro.parallel.cells import make_cell
from repro.parallel.executor import SweepExecutor

#: tally summary fields carried by a ping-pong cell payload.
TALLY_FIELDS = (
    "count", "mean", "median", "minimum", "maximum",
    "stddev", "p95", "p99", "total",
)


def tally_payload(tally):
    """A :class:`~repro.simnet.Tally` as a plain-JSON summary dict."""
    return {
        "name": tally.name,
        "count": tally.count,
        "mean": tally.mean,
        "median": tally.median,
        "minimum": tally.minimum,
        "maximum": tally.maximum,
        "stddev": tally.stddev,
        "p95": tally.percentile(95),
        "p99": tally.percentile(99),
        "total": tally.total,
    }


class TallyStats:
    """Attribute view over a tally payload, chart/bench compatible.

    Carries exactly the summary statistics; raw samples stay in the
    worker.  ``results[s].mean`` / ``.median`` keep working wherever a
    figure runner used to hand back a live Tally.
    """

    __slots__ = ("name",) + TALLY_FIELDS

    def __init__(self, payload):
        self.name = payload.get("name", "")
        for field in TALLY_FIELDS:
            setattr(self, field, payload[field])

    def percentile(self, p):
        if p == 95:
            return self.p95
        if p == 99:
            return self.p99
        if p == 50:
            return self.median
        raise ValueError(
            "TallyStats carries p50/p95/p99 only, not p%r" % (p,)
        )

    def __repr__(self):
        return "TallyStats(%s: n=%d mean=%.1f median=%.1f)" % (
            self.name, self.count, self.mean, self.median,
        )


# -- worker-side cell runners -------------------------------------------------

def run_pingpong_cell(system, profile="local", rounds=2000, size=64, seed=0):
    """One fig5/fig7 grid point; returns the RTT tally summary (ns)."""
    tally = harness.run_pingpong(
        system, profile=profile, rounds=rounds, size=size, seed=seed
    )
    return tally_payload(tally)


def run_throughput_cell(system, profile="local", messages=20000, size=1024,
                        seed=0):
    """One fig8a grid point; returns ``{"gbps": goodput}``."""
    gbps = harness.run_throughput(
        system, profile=profile, messages=messages, size=size, seed=seed
    )
    return {"gbps": gbps}


def run_multisink_cell(sinks, profile="local", messages=20000, size=1024,
                       seed=0):
    """One fig8b grid point; returns per-sink and average goodput."""
    testbed = harness.make_testbed(profile, seed=seed)
    app = harness.InsaneBenchApp(testbed, "fast")
    meters = app.stream(messages, size, sinks=sinks)
    rates = [meter.gbps() for meter in meters]
    return {
        "avg_gbps": sum(rates) / len(rates),
        "per_sink_gbps": rates,
    }


# -- grid builders ------------------------------------------------------------

def fig5_cells(profile="local", rounds=2000, seed=0):
    from repro.bench.runner import FIG5_SIZES, FIG5_SYSTEMS

    return [
        make_cell("bench.pingpong", system=system, profile=profile,
                  rounds=rounds, size=size, seed=seed)
        for system in FIG5_SYSTEMS for size in FIG5_SIZES
    ]


def fig7_cells(profile="local", rounds=2000, seed=0):
    return [
        make_cell("bench.pingpong", system=system, profile=profile,
                  rounds=rounds, size=64, seed=seed)
        for system in harness.SYSTEMS
    ]


def fig8a_cells(messages=20000, seed=0):
    from repro.bench.runner import FIG8A_SIZES, FIG8A_SYSTEMS

    return [
        make_cell("bench.throughput", system=system, messages=messages,
                  size=size, seed=seed)
        for system in FIG8A_SYSTEMS for size in FIG8A_SIZES
    ]


def fig8b_cells(messages=20000, seed=0):
    from repro.bench.runner import FIG8B_SINKS

    return [
        make_cell("bench.multisink", sinks=sinks, messages=messages,
                  size=1024, seed=seed)
        for sinks in FIG8B_SINKS
    ]


def sweep_cells(cells, workers=1, cache=None):
    """Run a cell list through the executor.

    ``cache`` may be ``None`` (no caching), ``True`` (the default on-disk
    cache), or a ready :class:`~repro.parallel.ResultCache`.
    """
    if cache is True:
        cache = ResultCache()
    return SweepExecutor(workers=workers, cache=cache).run(cells)


def grid_payloads(sweep, *param_names):
    """Index a sweep's payloads by a tuple of cell params.

    ``grid_payloads(sweep, "system", "size")`` returns
    ``{(system, size): payload}``; with one name the key is scalar.
    """
    table = {}
    for result in sweep.results:
        params = result.cell["params"]
        key = tuple(params[name] for name in param_names)
        table[key if len(param_names) > 1 else key[0]] = result.payload
    return table
