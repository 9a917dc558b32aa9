"""Fault-injection scenario sweep: failover latency and goodput under loss.

Three scenarios, all driven by :mod:`repro.faults` schedules:

* ``failover`` — the headline experiment: a DPDK binding failure under
  steady accelerated traffic.  The runtime's health monitor detects the
  failure and re-maps the stream onto the best surviving datapath (XDP on
  the local profile); we measure the detection latency, the end-to-end
  delivery blackout, and the outcome mix (``sent`` before, ``degraded``
  after).  The scenario runs twice with the same seed and reports whether
  the two traces are bit-identical (the determinism contract).
* ``loss`` — goodput and delivery ratio of a best-effort stream under a
  sweep of link loss rates (INSANE is best-effort by design, paper §5.2).
* ``flap`` — a link flap under the reliable ARQ app layer
  (:mod:`repro.apps.reliable`): everything is delivered anyway, at the
  cost of retransmissions and backoff.
"""

import hashlib

from repro.bench.tables import format_table
from repro.core import QosPolicy, Session
from repro.core.runtime import build_stack
from repro.faults import FaultSchedule
from repro.simnet import Timeout


# -- scenario 1: datapath failure -> QoS-aware failover -----------------------

def _run_failover_once(seed, messages, interval_ns, fail_at_ns):
    """One failover run; returns (results dict, reproducibility digest)."""
    testbed, deployment = build_stack(seed=seed)
    sim = testbed.sim
    runtime = deployment.runtime(0)

    with Session(runtime, "pub") as pub, \
            Session(deployment.runtime(1), "sub") as sub:
        pub_stream = pub.create_stream(QosPolicy.fast(), name="fo")
        sub_stream = sub.create_stream(QosPolicy.fast(), name="fo")
        source = pub.create_source(pub_stream, channel=1)
        sink = sub.create_sink(sub_stream, channel=1)
        datapath_before = pub_stream.datapath

        emit_ids = []
        deliveries = []

        def producer():
            for _ in range(messages):
                buffer = yield from pub.get_buffer_wait(source, 64)
                emit_id = yield from pub.emit_data(source, buffer, length=64)
                emit_ids.append(emit_id)
                yield Timeout(interval_ns)

        def consumer():
            while True:
                delivery = yield from sub.consume_data(sink)
                deliveries.append(sim.now)
                sub.release_buffer(sink, delivery)

        sim.process(producer(), name="fo.pub")
        sim.process(consumer(), name="fo.sub")

        schedule = FaultSchedule().datapath_failure(
            at=fail_at_ns, host=0, datapath=datapath_before, reason="injected"
        )
        trace = schedule.apply(testbed, deployment)
        sim.run()

        outcomes = {}
        for emit_id in emit_ids:
            outcome = str(pub.check_emit_outcome(source, emit_id))
            outcomes[outcome] = outcomes.get(outcome, 0) + 1

        event = runtime.health.events[0] if runtime.health.events else None
        gaps_before = [
            b - a for a, b in zip(deliveries, deliveries[1:]) if b < fail_at_ns
        ]
        nominal_gap = (
            sorted(gaps_before)[len(gaps_before) // 2] if gaps_before else 0.0
        )
        blackout = 0.0
        for a, b in zip(deliveries, deliveries[1:]):
            if a <= fail_at_ns <= b or (a >= fail_at_ns and b - a > blackout):
                blackout = max(blackout, b - a)

        results = {
            "datapath_before": datapath_before,
            "datapath_after": pub_stream.datapath,
            "stream_degraded": pub_stream.degraded,
            "failovers": runtime.failovers.value,
            "detection_latency_ns": (
                event.detection_latency_ns if event else None
            ),
            "tokens_migrated": event.migrated if event else 0,
            "delivered": len(deliveries),
            "emitted": len(emit_ids),
            "nominal_gap_ns": nominal_gap,
            "blackout_ns": blackout,
            "outcomes": outcomes,
        }

        # reproducibility digest: the fault trace plus every delivery
        # timestamp and emit outcome — bit-identical across same-seed runs
        h = hashlib.sha256(trace.digest().encode())
        for t in deliveries:
            h.update(("%.9f" % t).encode())
        for outcome, count in sorted(outcomes.items()):
            h.update(("%s=%d" % (outcome, count)).encode())
        return results, h.hexdigest()


def run_failover(seed=0, messages=200, interval_ns=25_000.0,
                 fail_at_ns=1_000_000.0, quiet=False):
    """DPDK-binding failure under load; returns the failover report dict.

    Runs the scenario twice with the same seed and records whether the
    traces (fault events, delivery timestamps, outcomes) are identical.
    """
    results, digest_a = _run_failover_once(seed, messages, interval_ns, fail_at_ns)
    _, digest_b = _run_failover_once(seed, messages, interval_ns, fail_at_ns)
    results["digest"] = digest_a
    results["reproducible"] = digest_a == digest_b
    if not quiet:
        rows = [
            ("datapath before -> after",
             "%s -> %s" % (results["datapath_before"], results["datapath_after"])),
            ("failure detected after", "%.1f us" % (results["detection_latency_ns"] / 1000.0)),
            ("delivery blackout", "%.1f us" % (results["blackout_ns"] / 1000.0)),
            ("nominal delivery gap", "%.1f us" % (results["nominal_gap_ns"] / 1000.0)),
            ("tokens migrated off dead ring", results["tokens_migrated"]),
            ("delivered / emitted", "%d / %d" % (results["delivered"], results["emitted"])),
            ("emit outcomes", ", ".join(
                "%s=%d" % kv for kv in sorted(results["outcomes"].items()))),
            ("same-seed rerun identical", "yes" if results["reproducible"] else "NO"),
            ("trace digest", results["digest"][:16]),
        ]
        print(format_table(
            ("metric", "value"), rows,
            title="Failover: injected %s failure at t=%.0f us (seed %d)"
            % (results["datapath_before"], fail_at_ns / 1000.0, seed),
        ))
    return results


# -- scenario 2: goodput under loss bursts ------------------------------------

def run_loss_cell(rate, seed=0, messages=2000, size=1024,
                  interval_ns=1_000.0):
    """One loss-sweep point (a ``bench.loss`` sweep cell).

    Builds an isolated testbed for the given loss rate and returns the
    plain-JSON delivery record the loss table is assembled from.
    """
    testbed, deployment = build_stack(seed=seed)
    sim = testbed.sim
    with Session(deployment.runtime(0), "pub") as pub, \
            Session(deployment.runtime(1), "sub") as sub:
        pub_stream = pub.create_stream(QosPolicy.fast(), name="loss")
        sub_stream = sub.create_stream(QosPolicy.fast(), name="loss")
        source = pub.create_source(pub_stream, channel=1)
        received = [0, 0.0]

        def on_delivery(delivery, received=received):
            received[0] += 1
            received[1] = sim.now
            return False

        sub.create_sink(sub_stream, channel=1, callback=on_delivery)
        if rate > 0.0:
            FaultSchedule().loss_burst(
                at=0.0, for_ns=None, rate=rate, link=0
            ).apply(testbed, deployment)

        def producer():
            for _ in range(messages):
                buffer = yield from pub.get_buffer_wait(source, size)
                yield from pub.emit_data(source, buffer, length=size)
                yield Timeout(interval_ns)

        sim.process(producer(), name="loss.pub")
        sim.run()
        delivered, last_ns = received
        goodput_gbps = (
            delivered * size * 8.0 / last_ns if last_ns > 0 else 0.0
        )
        return {
            "delivered": delivered,
            "ratio": delivered / messages,
            "goodput_gbps": goodput_gbps,
        }


def run_loss_goodput(seed=0, messages=2000, size=1024, interval_ns=1_000.0,
                     rates=(0.0, 0.05, 0.1, 0.2), quiet=False, workers=1,
                     cache=None):
    """Best-effort goodput and delivery ratio vs link loss rate.

    The producer is paced (``interval_ns``) to keep the offered load below
    the path capacity, so the delivery ratio isolates *loss* rather than
    receiver overload.  Each rate is an independent sweep cell; ``workers``
    shards them across processes."""
    from repro.bench.sweep import grid_payloads, sweep_cells
    from repro.parallel.cells import make_cell

    cells = [
        make_cell("bench.loss", rate=rate, seed=seed, messages=messages,
                  size=size, interval_ns=interval_ns)
        for rate in rates
    ]
    sweep = sweep_cells(cells, workers=workers, cache=cache)
    payloads = grid_payloads(sweep, "rate")
    results = {rate: payloads[rate] for rate in rates}
    if not quiet:
        rows = [
            ("%.0f%%" % (rate * 100.0),
             r["delivered"], "%.3f" % r["ratio"], "%.2f" % r["goodput_gbps"])
            for rate, r in results.items()
        ]
        print(format_table(
            ("loss rate", "delivered", "ratio", "goodput Gbps"), rows,
            title="Goodput under loss: %d x %dB, best-effort (seed %d)"
            % (messages, size, seed),
        ))
    return results


# -- scenario 3: link flap under the reliable ARQ layer -----------------------

def run_flap_reliable(seed=0, messages=60, flap_at_ns=500_000.0,
                      flap_ns=300_000.0, quiet=False):
    """A link flap under :class:`~repro.apps.reliable.ReliableSender`:
    the ARQ layer retransmits through the outage and delivers everything."""
    from repro.apps.reliable import ReliableReceiver, ReliableSender

    testbed, deployment = build_stack(seed=seed)
    sim = testbed.sim
    with Session(deployment.runtime(0), "tx") as tx, \
            Session(deployment.runtime(1), "rx") as rx:
        tx_stream = tx.create_stream(QosPolicy.fast(), name="arq")
        rx_stream = rx.create_stream(QosPolicy.fast(), name="arq")
        sender = ReliableSender(tx, tx_stream, channel=1, window=8)
        delivered = []
        ReliableReceiver(rx, rx_stream, channel=1, deliver=delivered.append)

        def producer():
            for index in range(messages):
                yield from sender.send(b"msg-%04d" % index)
                yield Timeout(20_000.0)
            yield from sender.drain()
            sender.close()

        sim.process(producer(), name="arq.tx")
        FaultSchedule().link_down(
            at=flap_at_ns, for_ns=flap_ns, link=0
        ).apply(testbed, deployment)
        sim.run()

        results = {
            "sent": messages,
            "delivered": len(delivered),
            "in_order": delivered == [b"msg-%04d" % i for i in range(messages)],
            "retransmissions": sender.retransmissions.value,
            "survived": len(delivered) == messages and not sender.failed,
        }
    if not quiet:
        rows = [
            ("delivered / sent", "%d / %d" % (results["delivered"], results["sent"])),
            ("in order", "yes" if results["in_order"] else "NO"),
            ("retransmissions", results["retransmissions"]),
            ("survived the flap", "yes" if results["survived"] else "NO"),
        ]
        print(format_table(
            ("metric", "value"), rows,
            title="Link flap (%.0f us down) under reliable ARQ (seed %d)"
            % (flap_ns / 1000.0, seed),
        ))
    return results


# -- entry point ---------------------------------------------------------------

def run_faults(seed=0, messages=None, quiet=False, workers=1, cache=None):
    """The full fault-scenario sweep (the ``faults`` CLI experiment).

    ``workers``/``cache`` apply to the loss sweep (its rates are
    independent cells); failover and flap are single scenarios and always
    run inline.
    """
    messages = messages or 2000
    report = {}
    report["failover"] = run_failover(seed=seed, quiet=quiet)
    if not quiet:
        print()
    report["loss"] = run_loss_goodput(seed=seed, messages=messages,
                                      quiet=quiet, workers=workers,
                                      cache=cache)
    if not quiet:
        print()
    report["flap"] = run_flap_reliable(seed=seed, quiet=quiet)
    return report
