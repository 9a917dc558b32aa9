"""Seeded random workloads: the inputs of the differential oracle.

A :class:`WorkloadSpec` is a compact, JSON-serializable description of one
end-to-end scenario: topology profile, traffic shape (streaming fan-out or
ping-pong), QoS policy, and an optional fault plan.  :func:`random_spec`
draws a spec from a private ``random.Random(seed)`` — the generator never
touches the simulator's rng, so the same seed always yields the same
scenario regardless of which engine later runs it.

:func:`run_spec` executes one spec on either engine and returns a
:class:`RunResult`: the sealed :class:`~repro.validate.canonical.CanonicalTrace`
plus an accounting *ledger* — every counter the property checkers in
:mod:`repro.validate.properties` need to assert packet conservation, FIFO
delivery, QoS-mapping monotonicity, and exactly-once failure detection.

The fault-plan grammar (one plan per spec, a tuple of primitives):

``()``
    fault-free run;
``("failover", at_ns, restore_after_ns_or_None)``
    fail the publisher stream's datapath at ``at_ns`` (restored after the
    given delay, or never) — drawing ``restore_after < FAILOVER_DETECT_NS``
    exercises the restore-before-detect epoch guard;
``("strand", at_ns)``
    fail *every* instantiated binding on the publisher host: zero
    survivors, so affected streams strand and emits raise
    :class:`~repro.core.errors.DatapathFailedError`;
``("random", fault_seed, n_faults)``
    a :meth:`repro.faults.FaultSchedule.random` scenario (link flaps, loss
    bursts, NIC squeezes, datapath stalls, CPU slowdowns).
"""

import json
import random
from dataclasses import asdict, dataclass

from repro.core.control import FAILOVER_DETECT_NS
from repro.core.errors import DatapathFailedError
from repro.core.qos import Acceleration, QosPolicy
from repro.core.runtime import InsaneDeployment
from repro.core.session import Session
from repro.faults import FaultSchedule
from repro.hw.profiles import PROFILES
from repro.hw.topology import Testbed
from repro.simnet import Simulator, Timeout
from repro.simnet.legacy import LegacySimulator
from repro.validate.canonical import TraceProbe

ENGINES = {"fast": Simulator, "legacy": LegacySimulator}

#: bytes of big-endian sequence number each producer writes into its buffer
SEQ_BYTES = 8


@dataclass(frozen=True)
class WorkloadSpec:
    """One differential-validation scenario, fully determined by its fields."""

    seed: int
    kind: str = "stream"          # "stream" | "pingpong"
    profile: str = "local"        # "local" | "cloud"
    messages: int = 60
    size: int = 256               # declared emit length (bytes)
    interval_ns: float = 20_000.0
    accelerated: bool = True
    constrained: bool = False
    time_sensitive: bool = False
    sinks: int = 1                # subscriber fan-out (stream kind only)
    fault_plan: tuple = ()

    def policy(self):
        kwargs = {"acceleration": "fast" if self.accelerated else "slow"}
        if self.accelerated and self.constrained:
            kwargs["constrained"] = True
        if self.time_sensitive:
            kwargs["time_sensitive"] = True
        return QosPolicy.from_kwargs(**kwargs)

    def horizon_ns(self):
        """Rough duration of the workload's active phase."""
        return max(self.messages * self.interval_ns, 200_000.0)

    def to_json(self):
        record = asdict(self)
        record["fault_plan"] = list(self.fault_plan)
        return json.dumps(record, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        record = json.loads(text)
        record["fault_plan"] = tuple(record.get("fault_plan", ()))
        return cls(**record)

    def describe(self):
        """A compact one-line human description."""
        parts = [
            "seed=%d" % self.seed, self.kind, self.profile,
            "n=%d" % self.messages, "size=%d" % self.size,
            "ivl=%g" % self.interval_ns,
            "qos=%s%s%s" % (
                "fast" if self.accelerated else "slow",
                "+constrained" if self.constrained else "",
                "+ts" if self.time_sensitive else "",
            ),
        ]
        if self.kind == "stream":
            parts.append("sinks=%d" % self.sinks)
        if self.fault_plan:
            parts.append("fault=%s" % (self.fault_plan,))
        return " ".join(parts)


def random_spec(seed):
    """Draw a :class:`WorkloadSpec` from ``random.Random(seed)``.

    The distribution is biased toward the failover edge cases the fault
    model is most likely to get wrong: restore-before-detect windows and
    zero-survivor stranding both appear with non-trivial probability.
    """
    rng = random.Random(seed)
    kind = "pingpong" if rng.random() < 0.3 else "stream"
    profile = "cloud" if rng.random() < 0.25 else "local"
    messages = rng.randrange(30, 121)
    size = rng.choice((32, 64, 256, 512, 1024))
    interval_ns = float(rng.choice((5_000, 20_000, 50_000)))
    accelerated = rng.random() < 0.75
    constrained = accelerated and rng.random() < 0.3
    time_sensitive = rng.random() < 0.2
    sinks = rng.randrange(1, 4) if kind == "stream" else 1
    horizon = max(messages * interval_ns, 200_000.0)
    draw = rng.random()
    if draw < 0.5:
        plan = ()
    elif draw < 0.75:
        at = rng.uniform(0.1, 0.6) * horizon
        which = rng.random()
        if which < 1.0 / 3.0:
            restore = None                                        # permanent
        elif which < 2.0 / 3.0:
            restore = rng.uniform(0.1, 0.9) * FAILOVER_DETECT_NS  # before detect
        else:
            restore = rng.uniform(2.0, 6.0) * FAILOVER_DETECT_NS  # after detect
        plan = ("failover", at, restore)
    elif draw < 0.9:
        plan = ("random", rng.randrange(1 << 16), rng.randrange(2, 6))
    else:
        plan = ("strand", rng.uniform(0.1, 0.5) * horizon)
    return WorkloadSpec(
        seed=seed, kind=kind, profile=profile, messages=messages, size=size,
        interval_ns=interval_ns, accelerated=accelerated,
        constrained=constrained, time_sensitive=time_sensitive, sinks=sinks,
        fault_plan=plan,
    )


@dataclass
class RunResult:
    """One executed workload: its canonical trace plus the accounting ledger."""

    spec: WorkloadSpec
    engine: str
    trace: object          # CanonicalTrace
    ledger: dict


def run_spec(spec, engine="fast", profile=None):
    """Run ``spec`` on ``engine`` ("fast" | "legacy") to quiesce.

    ``profile`` optionally overrides the testbed profile object (the
    differential CLI uses this to perturb one side's cost model and prove
    the oracle catches it).
    """
    sim = ENGINES[engine](seed=spec.seed)
    prof = profile if profile is not None else PROFILES[spec.profile]
    testbed = Testbed(prof, hosts=2, seed=spec.seed, sim=sim)
    probe = TraceProbe(testbed)
    deployment = InsaneDeployment(testbed)
    policy = spec.policy()

    pub = Session(deployment.runtime(0), "pub")
    sub = Session(deployment.runtime(1), "sub")

    emit_log = {}        # producer label -> [(source, emit_id, seq), ...]
    delivery_log = {}    # sink label -> [seq, ...] in consumption order
    refused = {"count": 0}
    sinks = []           # (label, Sink handle) for residual accounting
    streams = []         # (label, Stream handle) for mapping checks

    def producer(session, source, label, channel, count):
        for seq in range(count):
            buffer = yield from session.get_buffer_wait(source, spec.size)
            buffer.write(seq.to_bytes(SEQ_BYTES, "big"))
            try:
                emit_id = yield from session.emit_data(
                    source, buffer, length=spec.size
                )
            except DatapathFailedError:
                session.release_buffer(source, buffer)
                refused["count"] += 1
                probe.note("emit_refused", sim.now, label, seq)
                yield Timeout(spec.interval_ns)
                continue
            emit_log[label].append((source, emit_id, seq))
            probe.emit(label, channel, seq)
            yield Timeout(spec.interval_ns)

    def consumer(session, sink, label):
        while True:
            delivery = yield from session.consume_data(sink)
            seq = int.from_bytes(delivery.payload()[:SEQ_BYTES], "big")
            delivery_log[label].append(seq)
            probe.deliver(label, delivery.stream, delivery.channel,
                          seq, delivery.length)
            session.release_buffer(sink, delivery)

    if spec.kind == "stream":
        pub_stream = pub.create_stream(policy, name="val")
        sub_stream = sub.create_stream(policy, name="val")
        streams += [
            ("pub/val", pub_stream, pub_stream.datapath),
            ("sub/val", sub_stream, sub_stream.datapath),
        ]
        source = pub.create_source(pub_stream, channel=1)
        emit_log["pub"] = []
        for index in range(spec.sinks):
            label = "sink%d" % index
            sink = sub.create_sink(sub_stream, channel=1)
            sinks.append((label, sink))
            delivery_log[label] = []
            sim.process(consumer(sub, sink, label), name="consumer.%s" % label)
        sim.process(
            producer(pub, source, "pub", 1, spec.messages), name="producer"
        )
        sinks_per_frame = spec.sinks
    elif spec.kind == "pingpong":
        pub_stream = pub.create_stream(policy, name="val")
        sub_stream = sub.create_stream(policy, name="val")
        streams += [
            ("pub/val", pub_stream, pub_stream.datapath),
            ("sub/val", sub_stream, sub_stream.datapath),
        ]
        c_source = pub.create_source(pub_stream, channel=1)
        c_sink = pub.create_sink(pub_stream, channel=2)
        s_sink = sub.create_sink(sub_stream, channel=1)
        s_source = sub.create_source(sub_stream, channel=2)
        emit_log["client"] = []
        emit_log["server"] = []
        delivery_log["client"] = []
        delivery_log["server"] = []
        sinks += [("client", c_sink), ("server", s_sink)]

        def server():
            while True:
                delivery = yield from sub.consume_data(s_sink)
                seq = int.from_bytes(delivery.payload()[:SEQ_BYTES], "big")
                delivery_log["server"].append(seq)
                probe.deliver("server", delivery.stream, delivery.channel,
                              seq, delivery.length)
                sub.release_buffer(s_sink, delivery)
                echo = yield from sub.get_buffer_wait(s_source, spec.size)
                echo.write(seq.to_bytes(SEQ_BYTES, "big"))
                try:
                    emit_id = yield from sub.emit_data(
                        s_source, echo, length=spec.size
                    )
                except DatapathFailedError:
                    sub.release_buffer(s_source, echo)
                    refused["count"] += 1
                    probe.note("emit_refused", sim.now, "server", seq)
                    continue
                emit_log["server"].append((s_source, emit_id, seq))
                probe.emit("server", 2, seq)

        def client():
            for seq in range(spec.messages):
                buffer = yield from pub.get_buffer_wait(c_source, spec.size)
                buffer.write(seq.to_bytes(SEQ_BYTES, "big"))
                try:
                    emit_id = yield from pub.emit_data(
                        c_source, buffer, length=spec.size
                    )
                except DatapathFailedError:
                    pub.release_buffer(c_source, buffer)
                    refused["count"] += 1
                    probe.note("emit_refused", sim.now, "client", seq)
                    yield Timeout(spec.interval_ns)
                    continue
                emit_log["client"].append((c_source, emit_id, seq))
                probe.emit("client", 1, seq)
                delivery = yield from pub.consume_data(c_sink)
                rseq = int.from_bytes(delivery.payload()[:SEQ_BYTES], "big")
                delivery_log["client"].append(rseq)
                probe.deliver("client", delivery.stream, delivery.channel,
                              rseq, delivery.length)
                pub.release_buffer(c_sink, delivery)
                yield Timeout(spec.interval_ns)

        sim.process(server(), name="server")
        sim.process(client(), name="client")
        sinks_per_frame = 1
    else:
        raise ValueError("unknown workload kind %r" % (spec.kind,))

    for label, stream, initial in streams:
        probe.note("map", sim.now, label, initial)

    fault_trace = None
    if spec.fault_plan:
        plan = spec.fault_plan
        if plan[0] == "failover":
            schedule = FaultSchedule().datapath_failure(
                at=plan[1], for_ns=plan[2], host=0,
                datapath=pub_stream.datapath,
            )
        elif plan[0] == "strand":
            schedule = FaultSchedule()
            for name in list(deployment.runtime(0).bindings):
                schedule.datapath_failure(
                    at=plan[1], host=0, datapath=name, reason="strand"
                )
        elif plan[0] == "random":
            schedule = FaultSchedule.random(
                plan[1], spec.horizon_ns(), faults=plan[2], hosts=2,
                links=len(testbed.links), datapaths=("dpdk", "xdp", "udp"),
            )
        else:
            raise ValueError("unknown fault plan %r" % (plan,))
        fault_trace = schedule.apply(testbed, deployment)

    sim.run()

    outcomes = {}
    for label, entries in sorted(emit_log.items()):
        session = pub if label in ("pub", "client") else sub
        for source, emit_id, _seq in entries:
            outcome = str(session.check_emit_outcome(source, emit_id))
            outcomes[outcome] = outcomes.get(outcome, 0) + 1

    ledger = _ledger(
        spec, sim, testbed, deployment, streams, sinks,
        emit_log, delivery_log, refused["count"], outcomes,
        sinks_per_frame, fault_trace,
    )
    trace = probe.finish(
        fault_trace=fault_trace,
        deployment=deployment,
        extra={"outcomes": outcomes, "refused": refused["count"]},
    )
    return RunResult(spec=spec, engine=engine, trace=trace, ledger=ledger)


def _ledger(spec, sim, testbed, deployment, streams, sinks, emit_log,
            delivery_log, refused, outcomes, sinks_per_frame, fault_trace):
    """Collect every counter the property checkers need, as plain data."""
    counters = {
        "tx_datapath": 0, "failed_drops": 0, "sched_drops": 0,
        "pool_drops": 0, "no_sink_drops": 0, "unknown_drops": 0,
        "udp_rx_packets": 0, "udp_no_socket_drops": 0, "udp_sockbuf_drops": 0,
        "endpoint_dropped": 0, "consumed": 0,
        "nic_tx": 0, "nic_rx": 0, "nic_rx_dropped": 0,
        "link_lost": 0, "switch_forwarded": 0, "switch_dropped": 0,
    }
    residuals = {
        "tx_rings": 0, "sched": 0, "rx_queues": 0,
        "nic_rx_ring": 0, "sink_rings": 0,
    }
    detect_ns = None
    for runtime in deployment.runtimes.values():
        if detect_ns is None:
            detect_ns = runtime.health.detect_ns
        for binding in runtime.bindings.values():
            counters["tx_datapath"] += binding.datapath.tx_packets.value
            counters["failed_drops"] += binding.datapath.failed_drops.value
            counters["sched_drops"] += binding.sched_drops.value
            counters["pool_drops"] += binding.pool_drops.value
            counters["no_sink_drops"] += binding.no_sink_drops.value
            counters["unknown_drops"] += binding.unknown_drops.value
            if binding.name == "udp":
                counters["udp_rx_packets"] += binding.datapath.rx_packets.value
                counters["udp_no_socket_drops"] += (
                    binding.datapath.no_socket_drops.value
                )
                counters["udp_sockbuf_drops"] += (
                    binding.datapath.socket_overflow_drops.value
                )
            residuals["tx_rings"] += sum(
                len(ring) for ring in binding.tx_rings.values()
            )
            residuals["sched"] += len(binding.fifo)
            if binding.tsn is not None:
                residuals["sched"] += len(binding.tsn)
            residuals["rx_queues"] += len(binding.rx_queue)
    for host in testbed.hosts:
        counters["nic_tx"] += host.nic.tx_frames.value
        counters["nic_rx"] += host.nic.rx_frames.value
        counters["nic_rx_dropped"] += host.nic.rx_dropped.value
        residuals["nic_rx_ring"] += len(host.nic.rx_ring)
    for link in testbed.links:
        counters["link_lost"] += link.lost_frames.value
    if testbed.switch is not None:
        counters["switch_forwarded"] = testbed.switch.forwarded.value
        counters["switch_dropped"] = testbed.switch.dropped.value
    for _label, sink in sinks:
        counters["consumed"] += sink.received.value
        counters["endpoint_dropped"] += sink.endpoint.dropped.value
        residuals["sink_rings"] += len(sink.endpoint.ring)

    failover_events = [
        {
            "host": event.host, "datapath": event.datapath,
            "failed_at": event.failed_at, "detected_at": event.detected_at,
            "remapped": [tuple(r) for r in event.remapped],
            "stranded": [tuple(s) for s in event.stranded],
            "migrated": event.migrated,
        }
        for runtime in deployment.runtimes.values()
        for event in runtime.health.events
    ]
    warnings = [
        warning
        for runtime in deployment.runtimes.values()
        for warning in runtime.warnings
    ]
    return {
        "spec": json.loads(spec.to_json()),
        "emitted": sum(len(entries) for entries in emit_log.values()),
        "refused": refused,
        "outcomes": outcomes,
        "emit_seqs": {
            label: [seq for _s, _e, seq in entries]
            for label, entries in emit_log.items()
        },
        "deliveries": {label: list(seqs) for label, seqs in delivery_log.items()},
        "sinks_per_frame": sinks_per_frame,
        "streams": [
            {
                "label": label,
                "accelerated": stream.policy.acceleration
                is Acceleration.ACCELERATED,
                "initial": initial,
                "final": stream.datapath,
                "failed": stream.failed,
                "degraded": stream.degraded,
                "failovers": stream.failovers,
            }
            for label, stream, initial in streams
        ],
        "warnings": warnings,
        "failover_events": failover_events,
        "fault_events": (
            [list(event) for event in fault_trace.events]
            if fault_trace is not None else []
        ),
        "detect_ns": detect_ns,
        "counters": counters,
        "residuals": residuals,
        "sim_ns": sim.now,
        "failures": [
            (name, "%s: %s" % (type(exc).__name__, exc))
            for name, exc in sim.failures
        ],
        "stats": sim.stats(),
    }
