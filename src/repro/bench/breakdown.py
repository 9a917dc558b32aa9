"""Latency breakdown of INSANE fast (paper Fig. 6).

Runs the paced one-way probe (:mod:`repro.obs.probe`) with per-packet
tracing enabled and splits each message's latency into the paper's four
components: send, network, receive and data processing.  The figure
reports an RTT breakdown of a symmetric echo, so each one-way component
is doubled.
"""

from repro.core.config import RuntimeConfig
from repro.core.runtime import build_stack
from repro.obs.probe import COMPONENTS, run_paced_probe

#: datapaths compared by the traced breakdown (paper Fig. 7 columns)
TRACED_DATAPATHS = ("udp", "xdp", "dpdk", "rdma")


def run_breakdown(profile="local", messages=300, size=64, seed=0, gap_ns=30_000):
    """Measure the Fig. 6 breakdown; returns {component: mean_us_per_rtt}."""
    _testbed, deployment = build_stack(profile=profile, seed=seed,
                                       config=RuntimeConfig(trace=True))
    tallies, _datapath = run_paced_probe(deployment, messages, size, gap_ns)
    # one-way components doubled: the echo path is symmetric
    return {component: 2 * tallies[component].mean / 1000.0 for component in COMPONENTS}


def run_traced_breakdown(profile="local", messages=200, size=64, seed=0,
                         gap_ns=30_000, datapaths=TRACED_DATAPATHS):
    """Per-datapath critical-path breakdown via lifecycle tracing.

    Runs the paced probe once per datapath on a stack pinned to it, each
    with a fresh :class:`~repro.obs.LifecycleTracer` attached through
    ``RuntimeConfig(tracer=...)``.  Returns ``{datapath: tracer}``,
    ready for :func:`repro.obs.breakdown_report` /
    :func:`repro.obs.chrome_trace`.
    """
    from repro.obs import LifecycleTracer

    tracers = {}
    for name in datapaths:
        tracer = LifecycleTracer()
        testbed, deployment = build_stack(
            name, profile=profile, seed=seed,
            config=RuntimeConfig(tracer=tracer))
        # the engine reads its observer only inside run()
        tracer.attach_engine(testbed.sim, label=name)
        run_paced_probe(deployment, messages, size, gap_ns)
        tracers[name] = tracer
    return tracers


def print_traced_breakdown(tracers):
    """Render the per-datapath stage table; returns the report dict."""
    from repro.obs import breakdown_report, format_breakdown

    report = breakdown_report(tracers)
    print(format_breakdown(report))
    return report
