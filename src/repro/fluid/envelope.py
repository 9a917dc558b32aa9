"""Rate envelopes: the fluid tier's analytic stand-in for per-packet DES.

A flow modelled at fluid fidelity is not a stream of packet events but a
*rate envelope*: per-stage service times calibrated against the
packet-accurate engine, from which arrival instants and latencies are
derived analytically.  Calibration is the Fig. 6 measurement itself:
the paced 1-publisher/1-sink probe of :mod:`repro.obs.probe` with
per-packet tracing on, decomposed into the paper's four components via
the lifecycle stamps (``emit_ns`` → ``nic_handoff`` → ``nic_rx_arrival``
→ ``runtime_rx`` → consume).  The Fig. 6 breakdown doubles those one-way
means into its RTT presentation; the envelope keeps them one-way.  It
therefore inherits every profile scalar — stage costs, DMA,
propagation, the L2 ring-pressure cliff — without re-deriving them by
hand.
"""

from dataclasses import dataclass, field

from repro.core import QosPolicy
from repro.core.config import RuntimeConfig
from repro.core.runtime import build_stack, fanout_cost_ns
from repro.obs.probe import COMPONENTS, run_paced_probe


@dataclass(frozen=True)
class Envelope:
    """One flow's calibrated rate envelope (all times one-way, ns)."""

    profile: str
    datapath: str
    size: int
    #: emit → consume-return, mean over the probe
    one_way_ns: float
    #: analytic (jitter-free) sink-side IPC pickup charge
    ipc_half_ns: float
    #: per-stage means: {"send", "network", "receive", "data_processing"}
    stage_ns: dict = field(default_factory=dict)
    #: receiver fan-out scalars, as the binding charges them
    fanout_per_sink_ns: float = 0.0
    l2_ring_budget: int = 0
    l2_penalty_ns: float = 0.0
    #: probe length the means were averaged over
    messages: int = 0

    def fanout_service_ns(self, subscribers, ring_count=None):
        """Receiver-side fan-out service time for one message delivered
        to ``subscribers`` local sinks: the binding's
        :func:`~repro.core.runtime.fanout_cost_ns`, L2 ring-pressure
        penalty included (``ring_count`` defaults to one ring per
        subscriber)."""
        rings = subscribers if ring_count is None else ring_count
        return fanout_cost_ns(subscribers, rings, self.fanout_per_sink_ns,
                              self.l2_ring_budget, self.l2_penalty_ns)

    def service_ns(self, subscribers):
        """Receiver service time for one message: RX pipeline plus the
        fan-out to ``subscribers`` sink rings."""
        return self.stage_ns.get("receive", 0.0) \
            + self.fanout_service_ns(subscribers)

    def safe_interval_ns(self, subscribers, headroom=2.0):
        """An emit interval that keeps a ``subscribers``-wide fan-out
        drop-free: ``headroom`` × the slower of the sender's and the
        receiver's per-message service time (floored at 1 µs so tiny
        fan-outs stay paced rather than bursty)."""
        service = self.service_ns(subscribers)
        send = self.stage_ns.get("send", 0.0)
        return max(headroom * service, headroom * send, 1000.0)

    def to_dict(self):
        return {
            "profile": self.profile,
            "datapath": self.datapath,
            "size": self.size,
            "one_way_ns": self.one_way_ns,
            "ipc_half_ns": self.ipc_half_ns,
            "stage_ns": dict(self.stage_ns),
            "fanout_per_sink_ns": self.fanout_per_sink_ns,
            "l2_ring_budget": self.l2_ring_budget,
            "l2_penalty_ns": self.l2_penalty_ns,
            "messages": self.messages,
        }


def _resolve_policy(qos):
    if qos is None:
        return QosPolicy.fast()
    if isinstance(qos, QosPolicy):
        return qos
    return QosPolicy.from_dict(qos)


def calibrate_envelope(profile="local", size=1024, datapath=None, qos=None,
                       messages=64, seed=7919, gap_ns=30_000.0):
    """Calibrate an :class:`Envelope` with the traced Fig. 6 probe.

    Runs the paced one-way 1→1 probe on a fresh 2-host testbed and
    averages its stamp decomposition.  ``datapath`` pins the technology
    the probe (and the flow it stands for) rides; ``qos`` is a policy
    dict or :class:`QosPolicy` (defaults to INSANE fast)."""
    testbed, deployment = build_stack(datapath, profile=profile, seed=seed,
                                      config=RuntimeConfig(trace=True))
    tallies, probe_datapath = run_paced_probe(
        deployment, messages, size, gap_ns, policy=_resolve_policy(qos))
    one_way = tallies["one_way"]
    if one_way.count == 0:
        raise RuntimeError(
            "envelope calibration probe delivered nothing "
            "(profile=%r datapath=%r)" % (profile, datapath))
    prof = testbed.profile
    return Envelope(
        profile=profile,
        datapath=probe_datapath,
        size=size,
        one_way_ns=one_way.mean,
        ipc_half_ns=prof.stage("insane_ipc").cost(0, burst=1) / 2.0,
        stage_ns={stage: tallies[stage].mean for stage in COMPONENTS},
        fanout_per_sink_ns=prof.scalar("insane_fanout_per_sink_ns"),
        l2_ring_budget=prof.scalar("insane_l2_ring_budget"),
        l2_penalty_ns=prof.scalar("insane_l2_penalty_ns"),
        messages=one_way.count,
    )
