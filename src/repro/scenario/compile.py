"""Compile a normalized scenario spec onto the simulated INSANE stack.

:func:`compile_scenario` turns one validated spec (the output of
:func:`repro.scenario.schema.validate_scenario`) into a
:class:`CompiledScenario`: the testbed built from the topology section
(with the RDMA NIC switched on when the workload pins ``rdma``), the
runtime deployment with per-packet tracing enabled, and the fault
schedule assembled from steady-state impairments plus the scheduled
faults.  :meth:`CompiledScenario.run` drives the workload and returns a
JSON-native metrics dict — the input :func:`repro.scenario.slo.
evaluate_slos` asserts over.

A compiled scenario is single-use (fault schedules arm exactly once);
compile a fresh one per run.  Everything here is a pure function of the
spec, so the same spec + same seed yields a bit-identical metrics dict —
the property :func:`repro.scenario.runner.run_scenario_cell` digests.
"""

from repro.core import QosPolicy, Session
from repro.core.config import RuntimeConfig
from repro.core.errors import ScenarioError
from repro.core.runtime import build_stack
from repro.faults import FaultSchedule
from repro.hw import Testbed
from repro.hw.profiles import PROFILES
from repro.obs.histogram import LogHistogram, gap_block, latency_block
from repro.simnet import Timeout

#: stream/channel names shared by every driver — part of the spec's
#: compiled identity, fixed so digests never depend on driver internals.
STREAM_NAME = "scenario"
DATA_CHANNEL = 1


def _schedule_records(spec):
    """Fault records to arm: steady impairments first, then the schedule.

    A steady-state impairment is exactly a permanent loss burst starting
    at t=0 on the named link — the same injector vocabulary, so the whole
    impairment state is visible in one place (the fault trace)."""
    records = []
    for impairment in spec["topology"]["impairments"]:
        records.append({
            "kind": "loss_burst", "at": 0.0,
            "link": impairment["link"], "rate": impairment["loss_rate"],
        })
    records.extend(spec["faults"])
    return records


def build_schedule(spec):
    """The spec's full :class:`~repro.faults.FaultSchedule` (fresh, unarmed)."""
    return FaultSchedule.from_dict(_schedule_records(spec))


def build_scenario_stack(spec):
    """The spec's testbed and traced deployment, with its datapath pin."""
    topology = spec["topology"]
    return build_stack(spec["workload"].get("datapath"),
                       profile=topology["profile"], seed=spec["seed"],
                       hosts=topology["hosts"],
                       config=RuntimeConfig(trace=True))


class CompiledScenario:
    """One scenario wired onto a live (simulated) stack, ready to run."""

    def __init__(self, spec):
        self.spec = spec
        self.workload = spec["workload"]
        self.kind = self.workload["kind"]
        self._ran = False
        if self.kind in ("baseline", "closed_loop", "city"):
            # baseline comparisons build one stack per system, closed-loop
            # runs one isolated stack per swept client count, and a city
            # builds its own (possibly partitioned) simulators — all
            # inside run(), so nothing to pre-build here
            self.testbed = None
            self.deployment = None
            self.schedule = None
            return
        self.testbed, self.deployment = build_scenario_stack(spec)
        self.schedule = build_schedule(spec)

    def run(self):
        """Execute the workload; returns the JSON-native metrics dict."""
        if self._ran:
            raise ScenarioError(
                "a compiled scenario is single-use (its fault schedule "
                "arms exactly once); compile a fresh one",
                source=self.spec["scenario"],
            )
        self._ran = True
        if self.kind == "baseline":
            return _drive_baseline(self.spec)
        if self.kind == "closed_loop":
            from repro.loadgen.scenario import drive_closed_loop

            return drive_closed_loop(self.spec)
        if self.kind == "city":
            return _drive_city(self.spec)
        trace = None
        if len(self.schedule):
            trace = self.schedule.apply(self.testbed, self.deployment)
        metrics = _DRIVERS[self.kind](self.spec, self.testbed,
                                      self.deployment)
        metrics["faults"] = {
            "events": len(trace.events) if trace else 0,
            "digest": trace.digest() if trace else None,
        }
        return metrics


def compile_scenario(spec):
    """Build the simulated stack for one normalized spec."""
    return CompiledScenario(spec)


def run_scenario(spec):
    """Compile + run in one step; returns the metrics dict."""
    return compile_scenario(spec).run()


# -- shared metric blocks ------------------------------------------------------

def _failovers(deployment):
    return sum(runtime.failovers.value
               for runtime in deployment.runtimes.values())


def _datapath_block(stream, initial):
    return {"initial": initial, "final": stream.datapath,
            "degraded": stream.degraded}


def _policy(workload):
    return QosPolicy.from_dict(workload["qos"])


# -- workload drivers ----------------------------------------------------------

def _drive_city(spec):
    """A generated city, optionally space-partitioned (:mod:`repro.dist`).

    The scenario's top-level seed governs generation; a workload datapath
    pin overrides the spec's.  ``topology.partitions > 1`` runs the
    conservative-sync engine (inline transport — a scenario cell may
    already be inside a sweep worker) and the digest it reports is, by
    the partitioning contract, the serial run's digest.
    """
    from repro.dist.sync import run_city_partitioned, run_city_serial
    from repro.hw.generate import CITY_EPOCH_NS, city_plan, resolve_topology

    topology = spec["topology"]
    city = dict(topology["spec"])
    city["seed"] = spec["seed"]
    pin = spec["workload"].get("datapath")
    if pin is not None:
        city["datapath"] = pin
    city = resolve_topology(city)
    partitions = topology["partitions"]
    if partitions <= 1:
        run = run_city_serial(city)
    else:
        run = run_city_partitioned(city, partitions, transport="inline")
    plan = city_plan(city)
    paced = LogHistogram()
    rpc = LogHistogram()
    for flow_id, k, delivered in run["records"]["deliveries"]:
        flow = plan["flows"][flow_id]
        base = CITY_EPOCH_NS + flow["phase_ns"] + k * city["interval_ns"]
        sample = delivered - base
        (paced if flow["kind"] == "paced" else rpc).record(sample)
    expected = len(plan["flows"]) * city["messages"]
    delivered_count = len(run["records"]["deliveries"])
    counters = run["records"]["counters"]
    return {
        "latency": latency_block(paced),
        "rpc_rtt": latency_block(rpc),
        "delivered": delivered_count,
        "expected": expected,
        "delivery_ratio": (delivered_count / expected) if expected else 0.0,
        "dropped": sum(value for key, value in counters.items()
                       if key.endswith("dropped")),
        "core_forwarded": run["records"]["core_forwarded"],
        "partition": {
            "partitions": run["partitions"],
            "transport": run["transport"],
            "digest": run["digest"],
            "events": run["events"],
        },
    }


def _drive_streaming(spec, testbed, deployment):
    """A paced one-way stream: the paper's sensor/telemetry category."""
    workload = spec["workload"]
    sim = testbed.sim
    messages = workload["messages"]
    size = workload["size"]
    interval = workload["interval"]
    policy = _policy(workload)
    pub = Session(deployment.runtime(0), "scn-pub")
    sub = Session(deployment.runtime(1), "scn-sub")
    pub_stream = pub.create_stream(policy, name=STREAM_NAME)
    sub_stream = sub.create_stream(policy, name=STREAM_NAME)
    source = pub.create_source(pub_stream, channel=DATA_CHANNEL)
    sink = sub.create_sink(sub_stream, channel=DATA_CHANNEL)
    initial = pub_stream.datapath
    hist = LogHistogram()
    deliveries = []

    def producer():
        for _ in range(messages):
            buffer = yield from pub.get_buffer_wait(source, size)
            yield from pub.emit_data(source, buffer, length=size)
            yield Timeout(interval)

    def consumer():
        while True:
            delivery = yield from sub.consume_data(sink)
            now = sim.now
            deliveries.append(now)
            stamps = delivery.trace
            if stamps and "emit_ns" in stamps:
                hist.record(now - stamps["emit_ns"])
            sub.release_buffer(sink, delivery)

    sim.process(consumer(), name="scn.sub")
    sim.process(producer(), name="scn.pub")
    sim.run()
    delivered = len(deliveries)
    duration = deliveries[-1] if deliveries else 0.0
    return {
        "kind": "streaming",
        "emitted": messages,
        "delivered": delivered,
        "delivery_ratio": delivered / messages,
        "duration_ns": duration,
        "goodput_gbps": delivered * size * 8.0 / duration if duration else 0.0,
        "latency": latency_block(hist),
        "gaps": gap_block(deliveries),
        "datapath": _datapath_block(pub_stream, initial),
        "failovers": _failovers(deployment),
    }


def _drive_pingpong(spec, testbed, deployment):
    """Symmetric request/response echo: the RTC-like category (RTT SLOs)."""
    workload = spec["workload"]
    sim = testbed.sim
    rounds = workload["rounds"]
    size = workload["size"]
    policy = _policy(workload)
    client = Session(deployment.runtime(0), "scn-client")
    server = Session(deployment.runtime(1), "scn-server")
    c_stream = client.create_stream(policy, name=STREAM_NAME)
    s_stream = server.create_stream(policy, name=STREAM_NAME)
    c_source = client.create_source(c_stream, channel=DATA_CHANNEL)
    c_sink = client.create_sink(c_stream, channel=DATA_CHANNEL + 1)
    s_sink = server.create_sink(s_stream, channel=DATA_CHANNEL)
    s_source = server.create_source(s_stream, channel=DATA_CHANNEL + 1)
    initial = c_stream.datapath
    hist = LogHistogram()

    def client_proc():
        for _ in range(rounds):
            start = sim.now
            buffer = yield from client.get_buffer_wait(c_source, size)
            yield from client.emit_data(c_source, buffer, length=size)
            delivery = yield from client.consume_data(c_sink)
            client.release_buffer(c_sink, delivery)
            hist.record(sim.now - start)

    def server_proc():
        while True:
            delivery = yield from server.consume_data(s_sink)
            server.release_buffer(s_sink, delivery)
            buffer = yield from server.get_buffer_wait(s_source, size)
            yield from server.emit_data(s_source, buffer, length=size)

    sim.process(server_proc(), name="scn.server")
    sim.process(client_proc(), name="scn.client")
    sim.run()
    return {
        "kind": "pingpong",
        "emitted": rounds,
        "delivered": hist.count,
        "duration_ns": sim.now,
        "latency": latency_block(hist),
        "datapath": _datapath_block(c_stream, initial),
        "failovers": _failovers(deployment),
    }


def _drive_bulk(spec, testbed, deployment):
    """Reliable windowed transfer over the ARQ app layer (bulk category)."""
    from repro.apps.reliable import ReliableReceiver, ReliableSender
    from repro.core.errors import TransferError

    workload = spec["workload"]
    sim = testbed.sim
    messages = workload["messages"]
    size = workload["size"]
    interval = workload["interval"]
    policy = _policy(workload)
    tx = Session(deployment.runtime(0), "scn-tx")
    rx = Session(deployment.runtime(1), "scn-rx")
    tx_stream = tx.create_stream(policy, name=STREAM_NAME)
    rx_stream = rx.create_stream(policy, name=STREAM_NAME)
    sender = ReliableSender(tx, tx_stream, channel=DATA_CHANNEL,
                            window=workload["window"])
    initial = tx_stream.datapath
    delivered = []
    ReliableReceiver(rx, rx_stream, channel=DATA_CHANNEL,
                     deliver=delivered.append)
    expected = [_bulk_payload(index, size) for index in range(messages)]
    state = {"completed": False}

    def producer():
        try:
            for index in range(messages):
                yield from sender.send(expected[index])
                yield Timeout(interval)
            yield from sender.drain()
        except TransferError:
            return
        finally:
            sender.close()
        state["completed"] = True

    sim.process(producer(), name="scn.tx")
    sim.run()
    duration = sim.now
    return {
        "kind": "bulk",
        "emitted": messages,
        "delivered": len(delivered),
        "delivery_ratio": len(delivered) / messages,
        "duration_ns": duration,
        "goodput_gbps": (len(delivered) * size * 8.0 / duration
                         if duration else 0.0),
        "in_order": delivered == expected[: len(delivered)],
        "completed": state["completed"] and len(delivered) == messages,
        "retransmissions": sender.retransmissions.value,
        "datapath": _datapath_block(tx_stream, initial),
    }


def _bulk_payload(index, size):
    base = ("m%06d|" % index).encode()
    if size <= len(base):
        return base[:size]
    return base + b"." * (size - len(base))


def _drive_fanout(spec, testbed, deployment):
    """One publisher fanned out to N sink applications (MoM category).

    With ``subscribers`` in the workload the fan-out runs at hybrid
    fidelity on the fluid engine (a hot fraction packet-accurate, the
    cold tail a rate-envelope aggregate — DESIGN.md §15), reusing this
    compiler's pre-built stack; with ``sinks`` every sink is a real
    packet-accurate session.
    """
    workload = spec["workload"]
    if "subscribers" in workload:
        from repro.fluid.fanout import drive_fanout_scenario

        return drive_fanout_scenario(spec, testbed, deployment,
                                     stream_name=STREAM_NAME,
                                     channel=DATA_CHANNEL)
    sim = testbed.sim
    messages = workload["messages"]
    size = workload["size"]
    sinks = workload["sinks"]
    if messages < 1:
        raise ScenarioError(
            "a fanout workload needs messages >= 1 (the delivery ratio "
            "divides by messages x sinks)",
            path="workload.messages", source=spec["scenario"],
        )
    if sinks < 1:
        raise ScenarioError(
            "a fanout workload needs sinks >= 1 (the delivery ratio "
            "divides by messages x sinks)",
            path="workload.sinks", source=spec["scenario"],
        )
    policy = _policy(workload)
    pub = Session(deployment.runtime(0), "scn-pub")
    pub_stream = pub.create_stream(policy, name=STREAM_NAME)
    source = pub.create_source(pub_stream, channel=DATA_CHANNEL)
    initial = pub_stream.datapath
    hist = LogHistogram()
    per_sink = [[] for _ in range(sinks)]

    def producer():
        for _ in range(messages):
            buffer = yield from pub.get_buffer_wait(source, size)
            yield from pub.emit_data(source, buffer, length=size)

    def sink_proc(session, sink, deliveries):
        while True:
            delivery = yield from session.consume_data(sink)
            now = sim.now
            deliveries.append(now)
            stamps = delivery.trace
            if stamps and "emit_ns" in stamps:
                hist.record(now - stamps["emit_ns"])
            session.release_buffer(sink, delivery)

    for index in range(sinks):
        session = Session(deployment.runtime(1), "scn-sink%d" % index)
        stream = session.create_stream(policy, name=STREAM_NAME)
        sink = session.create_sink(stream, channel=DATA_CHANNEL)
        sim.process(sink_proc(session, sink, per_sink[index]),
                    name="scn.sink%d" % index)
    sim.process(producer(), name="scn.pub")
    sim.run()
    total = sum(len(deliveries) for deliveries in per_sink)
    # goodput is measured over the first→last delivery window, not from
    # t=0: the old form divided by the absolute end time, so any idle
    # prefix (a fault delaying the first delivery, a slow datapath bind)
    # silently deflated every rate in the report
    firsts = [deliveries[0] for deliveries in per_sink if deliveries]
    lasts = [deliveries[-1] for deliveries in per_sink if deliveries]
    duration = (max(lasts) - min(firsts)) if firsts else 0.0
    sink_rates = [
        (len(deliveries) - 1) * size * 8.0
        / (deliveries[-1] - deliveries[0])
        if len(deliveries) > 1 and deliveries[-1] > deliveries[0] else 0.0
        for deliveries in per_sink
    ]
    return {
        "kind": "fanout",
        "sinks": sinks,
        "emitted": messages,
        "delivered": total,
        "delivery_ratio": total / (messages * sinks),
        "duration_ns": duration,
        "goodput_gbps": total * size * 8.0 / duration if duration > 0
        else 0.0,
        "min_sink_goodput_gbps": min(sink_rates),
        "latency": latency_block(hist),
        "gaps": gap_block(per_sink[0]),
        "datapath": _datapath_block(pub_stream, initial),
        "failovers": _failovers(deployment),
    }


def _drive_baseline(spec):
    """Side-by-side RTT of one system vs one baseline (Fig. 7 style).

    Both sides run on fresh same-seed testbeds with the same fault
    records (a fresh schedule each — schedules arm once)."""
    from repro.bench.harness import make_system

    workload = spec["workload"]
    means = {}
    for field in ("system", "baseline"):
        name = workload[field]
        testbed = Testbed(PROFILES[spec["topology"]["profile"]],
                          hosts=spec["topology"]["hosts"],
                          seed=spec["seed"])
        app = make_system(name, testbed)
        records = _schedule_records(spec)
        if records:
            FaultSchedule.from_dict(records).apply(
                testbed, getattr(app, "deployment", None))
        rtts = app.pingpong(workload["rounds"], workload["size"])
        means[field] = rtts.mean
    system_ns, baseline_ns = means["system"], means["baseline"]
    return {
        "kind": "baseline",
        "system": workload["system"],
        "baseline": workload["baseline"],
        "rounds": workload["rounds"],
        "size": workload["size"],
        "system_rtt_ns": system_ns,
        "baseline_rtt_ns": baseline_ns,
        "speedup_mean": baseline_ns / system_ns if system_ns else 0.0,
        "slowdown_mean": system_ns / baseline_ns if baseline_ns else 0.0,
        "faults": {"events": len(_schedule_records(spec)), "digest": None},
    }


_DRIVERS = {
    "streaming": _drive_streaming,
    "pingpong": _drive_pingpong,
    "bulk": _drive_bulk,
    "fanout": _drive_fanout,
}
