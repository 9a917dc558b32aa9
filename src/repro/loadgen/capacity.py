"""Capacity sweeps: client-count grids, the knee, and a capacity model.

A capacity sweep runs the closed-loop workload at increasing client
counts ``N`` on one pinned datapath, each point as one sweep cell
(``kind="loadgen.closed_loop"``) through the deterministic
:class:`~repro.parallel.SweepExecutor` — sharding, result caching, and
the bit-identical merged digest at any worker count all apply unchanged.

From the per-N stable-window statistics the sweep derives:

* the **knee** — the ``N`` maximizing *power* ``X / R`` (throughput per
  unit response time), the classic latency-throughput operating point:
  left of it adding clients buys nearly linear throughput, right of it
  mostly buys queueing delay;
* a simple **capacity model** — the two asymptotic bounds of interactive
  queueing: the light-load line ``X(N) = N / (R0 + Z)`` and the
  saturation ceiling ``X_max``, whose intersection
  ``N* = X_max * (R0 + Z)`` estimates the saturation client count.

Every point has already passed its own stability test and interactive-law
self-check inside the worker (a violating point aborts the sweep loudly),
so the numbers the model is fitted to are self-verified.
"""

from repro.core.runtime import build_stack, normalize_datapath
from repro.loadgen.client import run_closed_loop
from repro.loadgen.windows import NS_PER_S, WindowPlan
from repro.report import RunReport

CAPACITY_CELL_KIND = "loadgen.closed_loop"

#: default client-count grid of ``insane bench capacity``.
DEFAULT_CLIENTS = (1, 2, 4, 8, 16)


def run_closed_loop_cell(datapath="udp", profile="local", clients=4,
                         think_ns=10_000.0, think_dist="exponential",
                         size=64, outstanding=1, warmup_ns=400_000.0,
                         window_ns=2_000_000.0, windows=3,
                         cooldown_ns=100_000.0, epsilon=0.05,
                         stability_tol=0.25, seed=0):
    """One capacity grid point (worker-side sweep-cell runner).

    Builds an isolated pinned stack and runs the closed-loop workload;
    the payload is the full closed-loop metrics dict — a pure function
    of the parameters, bit-identical at any worker count.
    """
    testbed, deployment = build_stack(datapath, profile=profile, seed=seed)
    plan = WindowPlan(warmup_ns=warmup_ns, window_ns=window_ns,
                      windows=windows, cooldown_ns=cooldown_ns)
    metrics = run_closed_loop(
        testbed, deployment, clients=clients, think_ns=think_ns,
        think_dist=think_dist, size=size, outstanding=outstanding,
        plan=plan, seed=seed, epsilon=epsilon,
        stability_tol=stability_tol,
    )
    metrics["datapath"]["pinned"] = normalize_datapath(datapath)
    metrics["profile"] = profile
    return metrics


def capacity_cells(datapath, clients=DEFAULT_CLIENTS, profile="local",
                   seed=0, **params):
    """The client-count grid as sweep cells (one cell per N)."""
    from repro.parallel.cells import make_cell

    datapath = normalize_datapath(datapath)
    return [
        make_cell(CAPACITY_CELL_KIND, datapath=datapath, profile=profile,
                  clients=n, seed=seed, **params)
        for n in sorted(set(clients))
    ]


def point_from_metrics(metrics):
    """One capacity datapoint from a closed-loop run's metrics dict."""
    stable = metrics["stable"]
    return {
        "clients": metrics["clients"],
        "throughput_rps": stable["throughput_rps"],
        "mean_ns": stable["latency"]["mean_ns"],
        "p50_ns": stable["latency"]["p50_ns"],
        "p99_ns": stable["latency"]["p99_ns"],
        "power_rps_per_s": stable["throughput_rps"]
        / (stable["latency"]["mean_ns"] / NS_PER_S),
        "law_max_residual": metrics["law"]["max_residual"],
        "accepted_windows": len(metrics["accepted_windows"]),
    }


def sweep_points(sweep):
    """Per-N datapoints from a capacity sweep, sorted by client count."""
    points = [point_from_metrics(result.payload) for result in sweep.results]
    points.sort(key=lambda point: point["clients"])
    return points


def find_knee(points):
    """The latency-throughput knee: the point maximizing ``X / R``.

    Ties break toward the smaller client count (the cheaper operating
    point with the same power).
    """
    if not points:
        raise ValueError("cannot locate a knee in an empty sweep")
    return max(points, key=lambda p: (p["power_rps_per_s"], -p["clients"]))


def fit_capacity_model(points, think_ns):
    """The two-bound interactive capacity model from swept datapoints.

    ``r0_ns`` is the zero-contention response time (lightest measured
    load), ``x_max_rps`` the saturation throughput (highest measured),
    and ``n_star = x_max * (r0 + z)`` their intersection — below
    ``n_star`` the system is latency-bound, above it throughput-bound.
    """
    if not points:
        raise ValueError("cannot fit a capacity model to an empty sweep")
    r0_ns = points[0]["mean_ns"]
    x_max_rps = max(point["throughput_rps"] for point in points)
    n_star = x_max_rps * (r0_ns + think_ns) / NS_PER_S
    return {
        "r0_ns": r0_ns,
        "x_max_rps": x_max_rps,
        "think_ns": float(think_ns),
        "n_star": n_star,
    }


def run_capacity(datapath="udp", clients=DEFAULT_CLIENTS, profile="local",
                 workers=1, cache=None, seed=0, think_ns=10_000.0,
                 **params):
    """Sweep client counts on one datapath; returns ``(report, sweep)``.

    The :class:`~repro.report.RunReport` (kind ``bench.capacity``)
    carries the key-ordered datapoints, the knee, the fitted capacity
    model, and the executor's merged digest in its digest-compared
    ``data`` block; worker/cache provenance goes in ``meta``.
    """
    from repro.parallel import SweepExecutor

    cells = capacity_cells(datapath, clients=clients, profile=profile,
                           seed=seed, think_ns=think_ns, **params)
    sweep = SweepExecutor(workers=workers, cache=cache).run(cells)
    points = sweep_points(sweep)
    knee = find_knee(points)
    model = fit_capacity_model(points, think_ns)
    report = RunReport(
        kind="bench.capacity",
        data={
            "datapath": normalize_datapath(datapath),
            "profile": profile,
            "seed": seed,
            "points": points,
            "knee": knee,
            "model": model,
            "merged_digest": sweep.merged_digest(),
        },
        meta={
            "workers": sweep.workers,
            "executed": sweep.executed,
            "cache_hits": sweep.cache_hits,
        },
    )
    return report, sweep


def format_capacity(report):
    """Human-readable rendering of one ``bench.capacity`` report."""
    data = report.data
    lines = [
        "capacity: datapath=%s profile=%s seed=%d"
        % (data["datapath"], data["profile"], data["seed"]),
        "  %7s %14s %10s %10s %10s %9s"
        % ("clients", "X (req/s)", "mean (us)", "p50 (us)", "p99 (us)",
           "law res."),
    ]
    knee_clients = data["knee"]["clients"]
    for point in data["points"]:
        marker = "  <-- knee" if point["clients"] == knee_clients else ""
        lines.append(
            "  %7d %14.0f %10.2f %10.2f %10.2f %8.2f%%%s"
            % (point["clients"], point["throughput_rps"],
               point["mean_ns"] / 1000.0, point["p50_ns"] / 1000.0,
               point["p99_ns"] / 1000.0,
               point["law_max_residual"] * 100.0, marker)
        )
    model = data["model"]
    lines.append(
        "  model: R0=%.2f us, X_max=%.0f req/s, Z=%.2f us -> N*=%.1f "
        "clients" % (model["r0_ns"] / 1000.0, model["x_max_rps"],
                     model["think_ns"] / 1000.0, model["n_star"])
    )
    lines.append("  merged digest %s" % data["merged_digest"])
    return "\n".join(lines)
