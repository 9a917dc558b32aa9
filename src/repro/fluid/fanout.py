"""Hybrid-fidelity MoM fan-out: hot DES sinks + a fluid cold tail.

The paper's LUNAR scenario (§7.1) is one publisher feeding a very large
subscriber population.  Packet-accurate DES costs O(subscribers) events
per message, which caps a single box around 10⁴ subscribers; the hybrid
driver keeps a configurable *hot fraction* packet-accurate and folds the
cold tail into one :class:`~repro.fluid.aggregate.FluidAggregate` per
(host, datapath), so a 10⁶-subscriber fan-out runs in the event budget
of a ~10²-sink one while the weighted fan-out charge and the L2
ring-pressure model keep the *timing* of the full population.

``hot_fraction=1.0`` degenerates to a plain full-DES fan-out — the
reference the differential validator (:mod:`repro.validate.fanout`)
compares hybrid runs against.
"""

from repro.core import Session
from repro.core.channel import ChannelKey
from repro.core.config import RuntimeConfig
from repro.core.errors import SessionError
from repro.core.runtime import build_stack
from repro.netstack.packet import WIRE_OVERHEAD
from repro.obs.histogram import LogHistogram, gap_block, latency_block
from repro.simnet import Timeout

from repro.fluid.aggregate import (
    MODE_ANALYTIC,
    MODE_PIGGYBACK,
    FluidAggregate,
)
from repro.fluid.controller import FidelityController
from repro.fluid.envelope import _resolve_policy, calibrate_envelope

STREAM_NAME = "fanout"
DATA_CHANNEL = 1


class _HotSink:
    """Book-keeping for one packet-accurate sink."""

    __slots__ = ("session", "sink", "count", "first_ns", "last_ns",
                 "deliveries")

    def __init__(self, session, sink, keep_deliveries=False):
        self.session = session
        self.sink = sink
        self.count = 0
        self.first_ns = None
        self.last_ns = None
        self.deliveries = [] if keep_deliveries else None


def _path_links(testbed, tx_nic, rx_nic):
    """Every cable segment a host0→host1 frame traverses (direct link,
    or both NIC-to-switch segments on switched profiles)."""
    return [link for link in testbed.links
            if link.end_a in (tx_nic, rx_nic)
            or link.end_b in (tx_nic, rx_nic)]


def run_hybrid_fanout(subscribers, messages=64, size=1024,
                      hot_fraction=0.01, promote_threshold_hz=None,
                      demote_ratio=0.5, promote_batch=None, dwell_ticks=2,
                      drain_interval_ns=None, interval_ns=None,
                      profile="local", seed=0, datapath=None, qos=None,
                      testbed=None, deployment=None, envelope=None,
                      stream_name=STREAM_NAME, channel=DATA_CHANNEL):
    """Run one publisher → ``subscribers`` fan-out at hybrid fidelity.

    ``hot_fraction`` of the population is packet-accurate (at least one
    sink when the fraction is nonzero, or when a promote threshold needs
    the piggyback arrival signal); the rest rides a fluid aggregate.
    ``interval_ns`` paces the publisher — a float, a callable
    ``f(message_index) -> ns`` (rate-varying flows, e.g. to exercise
    demotion), or ``None`` for the envelope's drop-free interval.
    Passing ``testbed``/``deployment`` reuses an externally-built stack
    (the scenario compiler does); otherwise a 2-host testbed is built
    from ``profile``.  Returns a JSON-native metrics dict.
    """
    if subscribers < 1:
        raise ValueError("subscribers must be >= 1, got %r" % (subscribers,))
    if messages < 1:
        raise ValueError("messages must be >= 1, got %r" % (messages,))
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError("hot_fraction must be in [0, 1], got %r"
                         % (hot_fraction,))
    hot = int(round(subscribers * hot_fraction))
    if hot == 0 and hot_fraction > 0.0:
        hot = 1
    if hot > subscribers:
        hot = subscribers
    if promote_threshold_hz is not None and hot == 0 and hot < subscribers:
        # promotion changes the sink registry mid-flow, which is only
        # exact when the aggregate sees real dispatch instants — seed one
        # hot sink so the cold tail rides piggyback mode
        hot = 1
    cold = subscribers - hot

    if envelope is None:
        envelope = calibrate_envelope(profile=profile, size=size,
                                      datapath=datapath, qos=qos,
                                      seed=seed + 7919)
    if testbed is None:
        testbed, deployment = build_stack(datapath, profile=profile,
                                          seed=seed,
                                          config=RuntimeConfig(trace=True))
    sim = testbed.sim
    policy = _resolve_policy(qos)
    pub = Session(deployment.runtime(0), "fanout-pub")
    pub_stream = pub.create_stream(policy, name=stream_name)
    source = pub.create_source(pub_stream, channel=channel)
    initial_datapath = pub_stream.datapath

    hot_hist = LogHistogram()
    hot_sinks = []
    promoted = []
    retired = []
    sub_runtime = deployment.runtime(1)

    def hot_proc(state):
        session, sink = state.session, state.sink
        while True:
            try:
                delivery = yield from session.consume_data(sink)
            except SessionError:
                return  # demoted: session closed with an empty ring
            now = sim.now
            state.count += 1
            if state.first_ns is None:
                state.first_ns = now
            state.last_ns = now
            if state.deliveries is not None:
                state.deliveries.append(now)
            stamps = delivery.meta.get("trace")
            if stamps and "emit_ns" in stamps:
                hot_hist.record(now - stamps["emit_ns"])
            session.release_buffer(sink, delivery)

    def spawn_hot(index):
        session = Session(sub_runtime, "fanout-hot%d" % index)
        stream = session.create_stream(policy, name=stream_name)
        sink = session.create_sink(stream, channel=channel)
        state = _HotSink(session, sink, keep_deliveries=(index == 0))
        hot_sinks.append(state)
        sim.process(hot_proc(state), name="fanout.hot%d" % index)
        return state

    for index in range(hot):
        spawn_hot(index)
    sink_datapath = (hot_sinks[0].sink.stream.datapath if hot_sinks
                     else initial_datapath)

    aggregate = None
    controller = None
    if cold > 0:
        mode = MODE_PIGGYBACK if hot > 0 else MODE_ANALYTIC
        key = ChannelKey(stream_name, channel)
        wire = {}
        if mode == MODE_ANALYTIC:
            tx_nic = testbed.hosts[0].nic
            rx_nic = testbed.hosts[1].nic
            wire = {
                "tx_nic": tx_nic,
                "rx_nic": rx_nic,
                "links": _path_links(testbed, tx_nic, rx_nic),
                "tx_datapath": pub_stream.binding.datapath,
                "rx_datapath":
                    sub_runtime.ensure_binding(initial_datapath).datapath,
            }
        aggregate = FluidAggregate(
            sub_runtime, key, cold, envelope,
            mode=mode,
            datapath=sink_datapath,
            drain_interval_ns=(drain_interval_ns
                               or max(envelope.safe_interval_ns(subscribers),
                                      200_000.0)),
            wire=wire,
            frame_bytes=size + WIRE_OVERHEAD,
            service_extra_ns=(envelope.fanout_service_ns(subscribers)
                              if mode == MODE_ANALYTIC else 0.0),
            name="fanout-fluid",
        )
        if promote_threshold_hz is not None:
            next_index = [hot]

            def do_promote(want):
                moved = 0
                for _ in range(want):
                    state = spawn_hot(next_index[0])
                    next_index[0] += 1
                    promoted.append(state)
                    moved += 1
                return moved

            def do_demote(want):
                moved = 0
                while promoted and moved < want:
                    state = promoted[-1]
                    if state.session.data_available(state.sink):
                        break  # in-flight deliveries: not safe to fold yet
                    promoted.pop()
                    state.session.close()
                    retired.append(state)
                    hot_sinks.remove(state)
                    moved += 1
                return moved

            controller = FidelityController(
                aggregate, promote_threshold_hz,
                on_promote=do_promote, on_demote=do_demote,
                demote_ratio=demote_ratio, promote_batch=promote_batch,
                dwell_ticks=dwell_ticks,
            )

    if interval_ns is None:
        interval_for = lambda index: envelope.safe_interval_ns(subscribers)
    elif callable(interval_ns):
        interval_for = interval_ns
    else:
        interval_for = lambda index, _gap=float(interval_ns): _gap

    def producer():
        for index in range(messages):
            buffer = yield from pub.get_buffer_wait(source, size)
            emit_at = sim.now
            yield from pub.emit_data(source, buffer, length=size)
            if aggregate is not None and aggregate.mode == MODE_ANALYTIC:
                aggregate.on_emit(emit_at)
            gap = interval_for(index)
            if gap > 0:
                yield Timeout(gap)

    sim.process(producer(), name="fanout.pub")
    sim.run()
    if aggregate is not None:
        aggregate.flush()
        aggregate.close()

    all_sinks = hot_sinks + retired
    delivered_hot = sum(state.count for state in all_sinks)
    delivered_cold = aggregate.delivered if aggregate is not None else 0
    delivered = delivered_hot + delivered_cold
    expected = messages * subscribers

    starts = [state.first_ns for state in all_sinks
              if state.first_ns is not None]
    ends = [state.last_ns for state in all_sinks
            if state.last_ns is not None]
    if aggregate is not None and aggregate.first_arrival_ns is not None:
        starts.append(aggregate.first_arrival_ns)
        ends.append(aggregate.last_arrival_ns)
    window = (max(ends) - min(starts)) if starts else 0.0
    goodput = delivered * size * 8.0 / window if window > 0 else 0.0

    sink_rates = [
        (state.count - 1) * size * 8.0 / (state.last_ns - state.first_ns)
        for state in all_sinks
        if state.count > 1 and state.last_ns > state.first_ns
    ]
    if aggregate is not None and aggregate.messages > 1:
        cold_window = aggregate.last_arrival_ns - aggregate.first_arrival_ns
        if cold_window > 0:
            sink_rates.append(
                (aggregate.messages - 1) * size * 8.0 / cold_window)

    hists = [hot_hist]
    if aggregate is not None:
        hists.append(aggregate.hist)
    merged = LogHistogram.merged(hists)

    if hot_sinks and hot_sinks[0].deliveries is not None:
        gap_samples = hot_sinks[0].deliveries
    elif aggregate is not None:
        gap_samples = aggregate.arrivals
    else:
        gap_samples = []

    tx_nic = testbed.hosts[0].nic
    rx_nic = testbed.hosts[1].nic
    metrics = {
        "kind": "fanout",
        "mode": "hybrid" if aggregate is not None else "des",
        "subscribers": subscribers,
        "sinks": subscribers,
        "hot": hot,
        "cold": cold,
        "emitted": messages,
        "delivered": delivered,
        "delivered_hot": delivered_hot,
        "delivered_cold": delivered_cold,
        "expected": expected,
        "delivery_ratio": delivered / expected,
        "duration_ns": window,
        "goodput_gbps": goodput,
        "min_sink_goodput_gbps": min(sink_rates) if sink_rates else 0.0,
        "latency": latency_block(merged),
        "hot_latency": latency_block(hot_hist),
        "cold_latency": (latency_block(aggregate.hist)
                         if aggregate is not None else None),
        "gaps": gap_block(gap_samples),
        "wire": {
            "tx_frames": tx_nic.tx_frames.value,
            "fluid_tx_frames": tx_nic.fluid_tx_frames.value,
            "rx_frames": rx_nic.rx_frames.value,
            "fluid_rx_frames": rx_nic.fluid_rx_frames.value,
            "rx_dropped": rx_nic.rx_dropped.value,
        },
        "fluid": None,
        "datapath": {"initial": initial_datapath,
                     "final": pub_stream.datapath,
                     "degraded": pub_stream.degraded},
        "failovers": sum(runtime.failovers.value
                         for runtime in deployment.runtimes.values()),
    }
    if aggregate is not None:
        fluid = aggregate.stats()
        fluid["envelope"] = envelope.to_dict()
        fluid["promotions"] = controller.promotions if controller else 0
        fluid["demotions"] = controller.demotions if controller else 0
        if controller is not None:
            fluid["controller"] = controller.stats()
        metrics["fluid"] = fluid
    return metrics


def drive_fanout_scenario(spec, testbed, deployment,
                          stream_name="scenario", channel=1):
    """Scenario-DSL adapter: a ``fanout`` workload with ``subscribers``
    runs on the hybrid engine, reusing the compiler's pre-built stack
    (and therefore its fault schedule, datapath pin and seed)."""
    workload = spec["workload"]
    fidelity = workload.get("fidelity") or {}
    return run_hybrid_fanout(
        subscribers=workload["subscribers"],
        messages=workload["messages"],
        size=workload["size"],
        hot_fraction=fidelity.get("hot_fraction", 0.01),
        promote_threshold_hz=fidelity.get("promote_threshold"),
        drain_interval_ns=fidelity.get("drain_interval"),
        interval_ns=workload.get("interval"),
        profile=spec["topology"]["profile"],
        seed=spec["seed"],
        datapath=workload.get("datapath"),
        qos=workload["qos"],
        testbed=testbed,
        deployment=deployment,
        stream_name=stream_name,
        channel=channel,
    )
