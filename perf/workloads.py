"""The five benchmark workloads: seeded inputs, one timed phase, checks.

Every workload is driven only through public entry points of ``repro``
and is built in two steps so the set-up cost and the timed phase are
measured apart:

* constructing the workload object is set-up: it builds the testbed,
  topology, envelope calibration or suite load from ``seed``;
* :meth:`run` is the timed phase.  It times each *cell* (the unit a user
  waits for: one scenario, one closed-loop point, one whole run) with
  ``clock`` (the host clock less the noise sampler's own time, see
  ``calibration.py``) and checks the simulated outputs.

A workload has ``passes`` input sets per seed (only ``corpus`` has more
than one); ``pass_index`` picks the one a repetition runs.

``sensitivity`` is how strongly the workload's host time follows the
noise model's kernel (``calibration.py``) when neighbours contend for
the CPU: the slope of log rep time on log kernel time, fitted over the
reps of four sets of ten runs on a shared 2-vCPU guest (stream 0.87-0.95
per set, rpc 0.72-0.77, corpus 0.67-0.82, city 0.94-1.15, fanout
0.92-1.38), rounded.  Calibration takes out that share of the kernel's
slowdown; the workloads differ because their mix of interpreter work
and memory traffic does.

``run`` returns a plain dict::

    {"attempted": int, "ops": int, "failed": int, "problems": [str],
     "headline": {name: number}, "cells": [{"name", "kind", "datapath",
     "start_s", "wall_s", "ops"}]}

``ops`` counts completed operations (the workload's unit of work), and
``headline`` holds the simulated results: a pure function of the seed
and pass, so repetitions must agree on them exactly and seeds 0-2 are
compared against ``references.json``.  A cell's ``name`` identifies it
across repetitions.

``quick`` divides the input sizes (the self-tests use it); the headline
references only hold for ``quick == 1``.
"""

import time

#: fig8a shape: 1024 B messages, one source to one sink, DPDK via the
#: fast QoS, flooded as fast as buffer back-pressure admits
STREAM_MESSAGES = 100_000
STREAM_SIZE = 1024

#: closed-loop capacity harness past the N=8 knee, one point per datapath
RPC_DATAPATHS = ("udp", "xdp", "dpdk", "rdma")
RPC_CLIENTS = 16
RPC_THINK_NS = 10_000.0
RPC_SIZE = 64
RPC_WINDOW_NS = 6_000_000.0

#: the corpus runs at scenario-seed offsets seed .. seed + 3, one per pass
CORPUS_PASSES = 4

#: generated city: metro1k with more messages per flow, two partitions
CITY_TOPOLOGY = "metro1k"
CITY_MESSAGES = 64
CITY_PARTITIONS = 2

#: million-subscriber hybrid fan-out with 1000 packet-accurate sinks
FANOUT_SUBSCRIBERS = 1_000_000
FANOUT_HOT_FRACTION = 1e-3
FANOUT_MESSAGES = 384
FANOUT_SIZE = 1024


def _cell(name, kind, datapath, start_s, wall_s, ops):
    return {"name": name, "kind": kind, "datapath": datapath,
            "start_s": start_s, "wall_s": wall_s, "ops": ops}


def _result(attempted, ops, failed, problems, headline, cells):
    return {"attempted": attempted, "ops": ops, "failed": failed,
            "problems": problems, "headline": headline, "cells": cells}


def _failure_problems(sim):
    return ["process %s failed: %r" % (name, exc)
            for name, exc in sim.failures]


class Stream:
    """fig8a streaming flood: the per-packet hot path.

    The flood overruns the receiver's NIC ring by design (the paper's
    single-core sink, §8), so an emitted message is either delivered or
    counted in ``rx_dropped``; one that is neither is a failure.
    """

    name = "stream"
    passes = 1
    sensitivity = 0.9
    #: completed ops of one full-size repetition
    nominal_ops = STREAM_MESSAGES
    #: host seconds of one full-size repetition on a 2.1 GHz Xeon core
    expected_wall_s = 2.5

    def __init__(self, seed, quick=1, pass_index=0):
        from repro.bench.harness import InsaneBenchApp
        from repro.hw import Testbed
        from repro.hw.profiles import PROFILES

        self.messages = max(1, STREAM_MESSAGES // quick)
        self.testbed = Testbed(PROFILES["local"], hosts=2, seed=seed)
        self.app = InsaneBenchApp(self.testbed, "fast")

    def run(self, clock=time.perf_counter):
        start = clock()
        meter = self.app.stream(self.messages, STREAM_SIZE)[0]
        wall = clock() - start
        sim = self.testbed.sim
        delivered = meter.messages
        dropped = sum(host.nic.rx_dropped.value
                      for host in self.testbed.hosts)
        lost = self.messages - delivered - dropped
        failed = min(self.messages, lost + len(sim.failures))
        problems = _failure_problems(sim)
        if lost:
            problems.append("%d of %d messages neither delivered nor "
                            "dropped by the NIC model"
                            % (lost, self.messages))
        headline = {
            "delivered": delivered,
            "rx_dropped": dropped,
            "goodput_gbps": meter.gbps(),
            "sim_end_ns": sim.now,
        }
        datapath = self.app.client_stream.datapath
        return _result(self.messages, delivered, failed, problems, headline,
                       [_cell("stream", "streaming", datapath, start, wall,
                              delivered)])


class Rpc:
    """Closed-loop request/response, one operating point per datapath."""

    name = "rpc"
    passes = 1
    sensitivity = 0.75
    nominal_ops = 36_000
    expected_wall_s = 3.0

    def __init__(self, seed, quick=1, pass_index=0):
        from repro.loadgen.capacity import build_stack
        from repro.loadgen.windows import WindowPlan

        self.seed = seed
        self.plan = WindowPlan(window_ns=RPC_WINDOW_NS / quick)
        self.stacks = [(datapath, build_stack(datapath, seed=seed))
                       for datapath in RPC_DATAPATHS]

    def run(self, clock=time.perf_counter):
        from repro.core.errors import InsaneError
        from repro.loadgen.client import run_closed_loop

        cells, headline, problems = [], {}, []
        attempted = ops = failed = 0
        for datapath, (testbed, deployment) in self.stacks:
            start = clock()
            try:
                metrics = run_closed_loop(
                    testbed, deployment, clients=RPC_CLIENTS,
                    think_ns=RPC_THINK_NS, think_dist="exponential",
                    size=RPC_SIZE, outstanding=1, plan=self.plan,
                    seed=self.seed)
            except InsaneError as exc:
                # a point that fails its stability or law check completed
                # nothing that can be reported
                point_ops = self.nominal_ops // len(RPC_DATAPATHS)
                attempted += point_ops
                failed += point_ops
                problems.append("%s point failed: %s" % (datapath, exc))
                continue
            wall = clock() - start
            completed = (sum(window["responses"]
                             for window in metrics["windows"])
                         + metrics["discarded_responses"])
            sim = testbed.sim
            attempted += completed
            ops += completed
            failed += min(completed, len(sim.failures))
            problems += _failure_problems(sim)
            stable = metrics["stable"]
            headline["%s.completed" % datapath] = completed
            headline["%s.throughput_rps" % datapath] = \
                stable["throughput_rps"]
            headline["%s.p50_ns" % datapath] = stable["latency"]["p50_ns"]
            headline["%s.p99_ns" % datapath] = stable["latency"]["p99_ns"]
            cells.append(_cell(datapath, "closed_loop", datapath, start,
                               wall, completed))
        return _result(attempted, ops, failed, problems, headline, cells)


class Corpus:
    """The checked-in scenario corpus, one cell per scenario, in-process.

    Pass ``k`` of seed ``s`` adds ``s + k`` to every scenario's own seed,
    so seed 0 pass 0 is the corpus exactly as checked in.
    """

    name = "corpus"
    passes = CORPUS_PASSES
    sensitivity = 0.7
    nominal_ops = 28
    expected_wall_s = 3.0

    def __init__(self, seed, quick=1, pass_index=0):
        from repro.scenario.runner import builtin_corpus_dir, load_suite

        self.prefix = "p%d." % pass_index
        offset = seed + pass_index
        self.specs = [dict(spec, seed=spec["seed"] + offset)
                      for spec in load_suite(builtin_corpus_dir())[::quick]]

    def run(self, clock=time.perf_counter):
        from repro.scenario.runner import run_scenario_cell

        cells, headline, problems = [], {}, []
        failed = 0
        for spec in self.specs:
            name = self.prefix + spec["scenario"]
            start = clock()
            try:
                payload = run_scenario_cell(spec)
            except Exception as exc:  # one bad cell must not lose the pass
                failed += 1
                problems.append("%s raised %r" % (name, exc))
                continue
            wall = clock() - start
            metrics = payload["metrics"]
            if not payload["ok"]:
                failed += 1
                problems.append("%s failed SLOs %s" % (name, [
                    record["name"] for record in payload["slo"]["assertions"]
                    if not record["ok"]]))
            if isinstance(metrics.get("delivered"), int):
                headline["%s.delivered" % name] = metrics["delivered"]
            for record in payload["slo"]["assertions"]:
                observed = record["observed"]
                if isinstance(observed, (int, float)):
                    headline["%s.%s" % (name, record["name"])] = \
                        float(observed)
            datapath = (metrics.get("datapath") or {}).get("initial")
            cells.append(_cell(name, metrics["kind"], datapath, start, wall,
                               1))
        attempted = len(self.specs)
        return _result(attempted, attempted - failed, failed, problems,
                       headline, cells)


class City:
    """metro1k cut into two partitions under conservative sync.

    Both partitions run in this process (the inline transport: the same
    protocol and per-partition simulators as real partition processes,
    with deque channels).  Two processes would put the measurement on two
    CPUs whose speeds vary independently, out of reach of this process's
    noise sampler and of the profiler.
    """

    name = "city"
    passes = 1
    sensitivity = 1.0
    nominal_ops = 65_536
    expected_wall_s = 4.0

    def __init__(self, seed, quick=1, pass_index=0):
        from repro.hw.generate import city_plan, resolve_topology

        preset = resolve_topology(CITY_TOPOLOGY)
        self.spec = resolve_topology(dict(
            preset, messages=max(1, CITY_MESSAGES // quick), seed=seed))
        self.plan = city_plan(self.spec)

    def run(self, clock=time.perf_counter):
        from repro.dist.sync import run_city_partitioned
        from repro.hw.generate import CITY_EPOCH_NS

        start = clock()
        run = run_city_partitioned(self.spec, CITY_PARTITIONS,
                                   transport="inline")
        wall = clock() - start
        spec, flows = self.spec, self.plan["flows"]
        expected = len(flows) * spec["messages"]
        paced, rpc = [], []
        for flow_id, k, delivered_ns in run["records"]["deliveries"]:
            flow = flows[flow_id]
            sent = CITY_EPOCH_NS + flow["phase_ns"] + k * spec["interval_ns"]
            (paced if flow["kind"] == "paced" else rpc).append(
                delivered_ns - sent)
        delivered = len(paced) + len(rpc)
        problems = []
        if delivered != expected:
            problems.append("delivered %d of %d records"
                            % (delivered, expected))
        paced.sort()
        rpc.sort()
        headline = {
            "delivered": delivered,
            "latency_p50_ns": _percentile(paced, 50),
            "latency_p99_ns": _percentile(paced, 99),
            "rpc_rtt_p99_ns": _percentile(rpc, 99),
            "core_forwarded": run["records"]["core_forwarded"],
        }
        return _result(expected, delivered, expected - delivered, problems,
                       headline,
                       [_cell("city", "city", None, start, wall, delivered)])


class Fanout:
    """1M-subscriber hybrid fan-out: 1000 DES sinks plus the fluid tail."""

    name = "fanout"
    passes = 1
    sensitivity = 1.0
    nominal_ops = 384_000
    expected_wall_s = 3.5

    def __init__(self, seed, quick=1, pass_index=0):
        from repro.fluid import calibrate_envelope

        self.seed = seed
        self.subscribers = max(1000, FANOUT_SUBSCRIBERS // quick)
        self.messages = max(1, FANOUT_MESSAGES // quick)
        # the seed offset is the one `insane bench fanout` calibrates with
        self.envelope = calibrate_envelope(size=FANOUT_SIZE, seed=seed + 7919)

    def run(self, clock=time.perf_counter):
        from repro.fluid import run_hybrid_fanout

        start = clock()
        metrics = run_hybrid_fanout(
            self.subscribers, messages=self.messages, size=FANOUT_SIZE,
            hot_fraction=FANOUT_HOT_FRACTION, seed=self.seed,
            envelope=self.envelope)
        wall = clock() - start
        attempted = metrics["hot"] * self.messages
        delivered = metrics["delivered_hot"]
        problems = []
        if metrics["delivered"] != metrics["expected"]:
            problems.append("delivered %d of %d (hot and fluid)"
                            % (metrics["delivered"], metrics["expected"]))
        headline = {
            "delivered": metrics["delivered"],
            "latency_p50_ns": metrics["latency"]["p50_ns"],
            "latency_p99_ns": metrics["latency"]["p99_ns"],
            "goodput_gbps": metrics["goodput_gbps"],
        }
        datapath = metrics["datapath"]["initial"]
        cell = _cell("fanout", "fanout", datapath, start, wall, delivered)
        return _result(attempted, delivered, attempted - delivered, problems,
                       headline, [cell])


def _percentile(ordered, pct):
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, (len(ordered) * pct) // 100)]


WORKLOADS = {cls.name: cls for cls in (Stream, Rpc, Corpus, City, Fanout)}
