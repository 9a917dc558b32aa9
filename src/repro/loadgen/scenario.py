"""The ``closed_loop`` scenario workload: one point or an in-DSL sweep.

Bridges the scenario layer (:mod:`repro.scenario`) onto the closed-loop
harness.  A scalar ``clients`` runs one operating point; a list runs a
serial capacity sweep — each point on its own freshly built stack with
its own fresh fault schedule (schedules arm exactly once), exactly like
the baseline driver's per-system stacks.

Sweep metrics carry a ``capacity`` block (datapoints, the knee, the
fitted model), and the headline ``stable``/``law``/``latency`` blocks
come *from the knee point* — so stable-window SLOs assert at the located
operating point, not at an arbitrary end of the grid.  Either shape
keeps the interactive-law self-check armed: a residual above epsilon in
any accepted window raises before SLO evaluation ever runs.
"""

from repro.core import QosPolicy
from repro.loadgen.capacity import (
    find_knee,
    fit_capacity_model,
    point_from_metrics,
)
from repro.loadgen.client import run_closed_loop
from repro.loadgen.windows import WindowPlan


def _run_point(spec, clients):
    """One closed-loop operating point on a fresh spec-derived stack."""
    from repro.scenario.compile import build_scenario_stack, build_schedule

    workload = spec["workload"]
    testbed, deployment = build_scenario_stack(spec)
    schedule = build_schedule(spec)
    trace = None
    if len(schedule):
        trace = schedule.apply(testbed, deployment)
    plan = WindowPlan(
        warmup_ns=workload["warmup"], window_ns=workload["window"],
        windows=workload["windows"], cooldown_ns=workload["cooldown"],
    )
    metrics = run_closed_loop(
        testbed, deployment, clients=clients,
        think_ns=workload["think"], think_dist=workload["think_dist"],
        size=workload["size"], outstanding=workload["outstanding"],
        plan=plan, policy=QosPolicy.from_dict(workload["qos"]),
        seed=spec["seed"], epsilon=workload["epsilon"],
    )
    metrics["faults"] = {
        "events": len(trace.events) if trace else 0,
        "digest": trace.digest() if trace else None,
    }
    return metrics


def drive_closed_loop(spec):
    """Run the spec's ``closed_loop`` workload; returns the metrics dict."""
    clients = spec["workload"]["clients"]
    if not isinstance(clients, list):
        return _run_point(spec, clients)
    runs = [_run_point(spec, count) for count in clients]
    points = [point_from_metrics(metrics) for metrics in runs]
    knee = find_knee(points)
    model = fit_capacity_model(points, spec["workload"]["think"])
    at_knee = runs[[p["clients"] for p in points].index(knee["clients"])]
    metrics = dict(at_knee)
    metrics["clients"] = list(clients)
    metrics["capacity"] = {
        "points": points,
        "knee_clients": knee["clients"],
        "knee": knee,
        "model": model,
    }
    return metrics
