"""City-scale generated-topology bench: one sweep row per partition count.

Each row runs the same generated city once — serially for
``partitions=1``, space-partitioned through :mod:`repro.dist` otherwise —
as one ``bench.city`` sweep cell, so sharding, result caching, and the
merged-digest determinism contract of
:class:`~repro.parallel.SweepExecutor` apply unchanged.

Because every row simulates the *same* city, the per-row record digest
must be bit-identical across partition counts; the bench enforces that
before reporting.  A divergence here is a synchronization bug, not a
statistic, so it raises instead of printing a quietly-wrong table.
"""

from repro.core.runtime import normalize_datapath
from repro.hw.generate import resolve_topology

CITY_CELL_KIND = "bench.city"

DEFAULT_PARTITIONS = (1, 2, 4)


def city_topology(topology="smoke64", nodes=None):
    """The resolved city spec, optionally re-sized to ``nodes`` hosts.

    ``topology`` is a preset name or a spec dict; ``nodes`` overrides the
    host count (the preset keeps its region count, so the override must
    still satisfy ``regions <= hosts // 2``).  Validation errors surface
    as :class:`~repro.core.errors.TopologyError` immediately, before any
    cell is built.
    """
    spec = dict(resolve_topology(topology))
    if nodes is not None:
        spec["hosts"] = nodes
    return resolve_topology(spec)


def city_cells(topology="smoke64", partitions=DEFAULT_PARTITIONS,
               datapath="udp", nodes=None, seed=0):
    """The partition-count axis as sweep cells (one cell per count)."""
    from repro.parallel.cells import make_cell

    spec = city_topology(topology, nodes=nodes)
    # a plain preset rides along by name (smaller cells, and the payload
    # keeps the preset label); any override ships the resolved spec.
    if nodes is None and isinstance(topology, str):
        spec = topology
    datapath = normalize_datapath(datapath)
    return [
        make_cell(CITY_CELL_KIND, topology=spec, partitions=count,
                  datapath=datapath, seed=seed)
        for count in sorted(set(partitions))
    ]


def run_city_bench(topology="smoke64", partitions=DEFAULT_PARTITIONS,
                   datapath="udp", nodes=None, workers=1, cache=None,
                   seed=0):
    """Sweep partition counts over one generated city.

    Returns ``(report, sweep, rows)``: the ``bench.city``
    :class:`~repro.report.RunReport`, the raw
    :class:`~repro.parallel.SweepResult`, and the partition-ordered row
    payloads.  Raises ``RuntimeError`` if any partitioned row's record
    digest differs from the serial row's — the partitioning contract is a
    precondition of the numbers being comparable at all.
    """
    from repro.parallel import SweepExecutor

    cells = city_cells(topology, partitions=partitions, datapath=datapath,
                       nodes=nodes, seed=seed)
    sweep = SweepExecutor(workers=workers, cache=cache).run(cells)
    rows = sorted(sweep.payloads(), key=lambda row: row["partitions"])
    digests = sorted(set(row["digest"] for row in rows))
    if len(digests) > 1:
        raise RuntimeError(
            "partitioned record digests diverged across partition counts "
            "%s: %s — conservative sync is broken, refusing to report"
            % ([row["partitions"] for row in rows],
               ", ".join(digest[:16] for digest in digests))
        )
    report = sweep.to_report(
        kind=CITY_CELL_KIND,
        topology=(topology if isinstance(topology, str) else "custom"),
        datapath=normalize_datapath(datapath),
        seed=seed,
    )
    return report, sweep, rows


def format_city(rows):
    """Human-readable partition-count table for one city sweep."""
    if not rows:
        return "city: empty sweep"
    head = rows[0]
    lines = [
        "city: topology=%s hosts=%d regions=%d datapath=%s"
        % (head["topology"], head["hosts"], head["regions"],
           head["datapath"]),
        "  %10s %9s %9s %7s %10s %10s %10s"
        % ("partitions", "transport", "delivered", "ratio", "p50 (us)",
           "p99 (us)", "rpc p99"),
    ]
    for row in rows:
        latency = row["latency"]
        rpc = row["rpc_rtt"]
        lines.append(
            "  %10d %9s %9d %7.4f %10.2f %10.2f %10.2f"
            % (row["partitions"], row["transport"], row["delivered"],
               row["delivery_ratio"], latency["p50_ns"] / 1000.0,
               latency["p99_ns"] / 1000.0, rpc["p99_ns"] / 1000.0)
        )
    lines.append("  records digest %s (identical at every partition count)"
                 % head["digest"][:16])
    return "\n".join(lines)
