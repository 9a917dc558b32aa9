"""The pinned golden-trace corpus and its regeneration tool.

``tests/golden/corpus.json`` pins sha256 digests of the simulated results
of the paper workloads (fig5 ping-pong, fig8a streaming, fig8b 8-sink),
the failover bench, a handful of differential-validation workloads and
the serial runs of three generated cities — everything a behaviour-changing
commit would move.  The city entries anchor the partitioned runs too:
those are checked against the serial digest, which would not notice both
sides drifting together.  A tier-1 test (``tests/golden/test_corpus.py``)
recomputes and compares them, so trace drift fails CI with the exact
entry that moved.

Every other entry point that produces a result is pinned too, at reduced
sizes, because elsewhere it is guarded only by tolerances (paper-shape
assertions, SLO thresholds, the fan-out error bound) that a refactor can
move inside of without anyone seeing:

* ``scenario`` — the metrics digest of each checked-in corpus scenario;
* ``fanout`` — a 10k-subscriber hybrid run and a full-DES run;
* ``capacity`` — a two-point closed-loop client grid per datapath;
* ``baselines`` — the Fig. 7, Fig. 9 and Fig. 11 systems;
* ``breakdown`` — the Fig. 6 split and the traced per-datapath report
  with its Chrome trace;
* ``polling`` — ablations A2 (one polling thread per datapath vs one
  shared) and A5 (one vs two per binding), which no paper workload
  runs; A1 is too slow here, so a tier-1 test pins its ring order;
* ``datapaths`` — each plugin's own send and receive loops, without the
  runtime, over a two-host exchange of one- and 32-packet bursts: no
  other section reaches XDP's or RDMA's receive loop, and DPDK's only
  with one-packet batches.

The ``schedule`` section pins each paper workload's and each pinned
city's count of scheduler round trips (``Simulator.stats()["scheduled"]``,
keyed ``city-<preset>`` for a city).  The engine's six fused paths
(DESIGN.md §6: the link + rx-DMA and switch-arrival fusions, session
consume fusion, store-get and store-put elision and the departure
release of a frame's TX slot) skip round trips but count each step as
executed, so the digests cannot see whether they ran; a fused path that
stops engaging raises its workload's count, and a new one lowers it,
which is re-pinned with every digest unchanged.

Regeneration is deliberate: :func:`regenerate_corpus` (exposed as
``insane validate golden --regen``) refuses to overwrite an existing
corpus without ``force`` — re-pinning golden traces is a reviewed action,
never a side effect.
"""

import hashlib
import json
import os

#: the paper workloads pinned in the ``engine`` and ``schedule`` sections:
#: fig5 ping-pong latency, fig8a streaming throughput and fig8b 8-sink
#: fan-out, at reduced iteration counts — identity, not throughput.
ENGINE_WORKLOADS = {
    "fig5_pingpong": {"kind": "pingpong", "size": 64},
    "fig8a_streaming": {"kind": "stream", "size": 1024, "sinks": 1},
    "fig8b_8sink": {"kind": "stream", "size": 1024, "sinks": 8},
}
ENGINE_ROUNDS = 40
ENGINE_MESSAGES = 150
ENGINE_SEED = 7

FAULTS_SEED = 5
FAULTS_MESSAGES = 150
FAULTS_INTERVAL_NS = 20_000.0
FAULTS_FAIL_AT_NS = 1_000_000.0

#: seeds of the differential-validation workloads pinned in the corpus.
VALIDATE_SEEDS = (0, 1, 2, 3)

#: city presets whose serial run is pinned (digest and round trips),
#: all at one seed.  metro1k is the 16-region fabric the perf ``city``
#: workload cuts in two.
CITY_TOPOLOGIES = ("smoke64", "city256", "metro1k")
CITY_SEED = 0

#: the entry-point sections, at sizes that keep the whole check to a
#: few seconds: fan-out runs by name, the capacity grid, the baseline
#: systems' rounds and Fig. 11 frames, and the breakdown probe length.
FANOUT_RUNS = {
    "hybrid-10k": {"subscribers": 10_000, "messages": 16,
                   "hot_fraction": 0.001},
    "des-64": {"subscribers": 64, "messages": 16, "hot_fraction": 1.0},
}
CAPACITY_DATAPATHS = ("udp", "xdp", "dpdk", "rdma")
CAPACITY_CLIENTS = (2, 4)
CAPACITY_WINDOW_NS = 500_000.0
CAPACITY_WINDOWS = 2
BASELINE_ROUNDS = 20
BASELINE_RESOLUTION = "HD"
BASELINE_FRAMES = 4
BREAKDOWN_MESSAGES = 40
POLLING_ROUNDS = 40
POLLING_MESSAGES = 400
DATAPATH_BURSTS = (1, 32)
#: mbufs of the receiving DPDK plugin: a 32-packet burst outruns them, so
#: the exchange also pins the driver's mempool drop
DATAPATH_MEMPOOL_SLOTS = 24
ENTRY_SEED = 0

CORPUS_VERSION = 1

#: the corpus sections, each a name -> digest map except ``schedule``
#: (name -> scheduler round trips).
SECTIONS = ("baselines", "breakdown", "capacity", "city", "datapaths",
            "engine", "fanout", "faults", "polling", "scenario", "schedule",
            "validate")


def corpus_path(root=None):
    """Absolute path of ``tests/golden/corpus.json``."""
    if root is None:
        root = os.path.dirname(
            os.path.dirname(
                os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            )
        )
    return os.path.join(root, "tests", "golden", "corpus.json")


def _digest(payload):
    """sha256 over a canonical JSON rendering of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def run_workload(name, engine="fast", rounds=ENGINE_ROUNDS,
                 messages=ENGINE_MESSAGES, seed=ENGINE_SEED):
    """Run one :data:`ENGINE_WORKLOADS` entry on the INSANE fast path.

    ``engine`` picks the event loop ("fast" or "legacy"); the stack above
    it is the same either way, so the ``outcome`` — what the ``engine``
    digest hashes — must be bit-identical across engines.  Returns
    ``{"outcome": ..., "stats": sim.stats()}``.
    """
    from repro.bench.harness import InsaneBenchApp
    from repro.hw import Testbed
    from repro.hw.profiles import PROFILES
    from repro.simnet import Simulator
    from repro.simnet.legacy import LegacySimulator

    shape = ENGINE_WORKLOADS[name]
    sim = {"fast": Simulator, "legacy": LegacySimulator}[engine](seed=seed)
    testbed = Testbed(PROFILES["local"], hosts=2, seed=seed, sim=sim)
    app = InsaneBenchApp(testbed, "fast")
    if shape["kind"] == "pingpong":
        tally = app.pingpong(rounds, shape["size"])
        result = {"median_rtt_ns": tally.median, "rounds": rounds}
    else:
        meters = app.stream(messages, shape["size"], sinks=shape["sinks"])
        result = {
            "per_sink_gbps": [meter.gbps() for meter in meters],
            "messages": messages,
        }
    stats = sim.stats()
    return {
        "outcome": {
            "sim_ns": sim.now,
            "events": stats["events_executed"],
            "result": result,
            "failures": len(sim.failures),
        },
        "stats": stats,
    }


def _scenario_digests():
    """Metrics digest of each checked-in corpus scenario, by name."""
    from repro.scenario.compile import run_scenario
    from repro.scenario.runner import (
        builtin_corpus_dir,
        load_suite,
        metrics_digest,
    )

    return {
        spec["scenario"]: metrics_digest(run_scenario(spec))
        for spec in load_suite(builtin_corpus_dir())
    }


def _fanout_digests():
    from repro.fluid import run_hybrid_fanout

    return {
        name: _digest(run_hybrid_fanout(seed=ENTRY_SEED, **shape))
        for name, shape in FANOUT_RUNS.items()
    }


def _capacity_digests():
    from repro.loadgen.capacity import run_capacity

    return {
        datapath: run_capacity(
            datapath, clients=CAPACITY_CLIENTS, seed=ENTRY_SEED,
            window_ns=CAPACITY_WINDOW_NS, windows=CAPACITY_WINDOWS,
        )[0].digest()
        for datapath in CAPACITY_DATAPATHS
    }


def _baseline_digests():
    """Fig. 7's seven systems, Fig. 9's MoM systems, Fig. 11's streamers."""
    from repro.bench.harness import SYSTEMS, run_pingpong
    from repro.bench.mom import MOM_SYSTEMS, mom_pingpong
    from repro.bench.streaming import STREAMING_SYSTEMS, streaming_run
    from repro.bench.sweep import tally_payload

    digests = {}
    for system in SYSTEMS:
        tally = run_pingpong(system, rounds=BASELINE_ROUNDS, seed=ENTRY_SEED)
        digests["fig7-" + system] = _digest(tally_payload(tally))
    for system in MOM_SYSTEMS:
        tally = mom_pingpong(system, rounds=BASELINE_ROUNDS, seed=ENTRY_SEED)
        digests["fig9-" + system] = _digest(tally_payload(tally))
    for system in STREAMING_SYSTEMS:
        digests["fig11-" + system] = _digest(streaming_run(
            system, BASELINE_RESOLUTION, BASELINE_FRAMES, seed=ENTRY_SEED))
    return digests


def _breakdown_digests():
    from repro.bench.breakdown import run_breakdown, run_traced_breakdown
    from repro.obs import breakdown_report, chrome_trace

    fig6 = {
        profile: run_breakdown(profile, messages=BREAKDOWN_MESSAGES,
                               seed=ENTRY_SEED)
        for profile in ("local", "cloud")
    }
    tracers = run_traced_breakdown(messages=BREAKDOWN_MESSAGES,
                                   seed=ENTRY_SEED)
    return {
        "fig6": _digest(fig6),
        "traced": _digest({"report": breakdown_report(tracers),
                           "chrome": chrome_trace(tracers)}),
    }


def _polling_digests():
    """A2's round-trip tallies and A5's per-sink goodputs."""
    from repro.bench.ablations import (
        run_ablation_rx_threads,
        run_ablation_threads,
    )
    from repro.bench.sweep import tally_payload

    threads = run_ablation_threads(rounds=POLLING_ROUNDS, seed=ENTRY_SEED,
                                   quiet=True)
    rx_threads = run_ablation_rx_threads(messages=POLLING_MESSAGES,
                                         seed=ENTRY_SEED, quiet=True)
    return {
        "a2-threads": _digest({mapping: tally_payload(tally)
                               for mapping, tally in threads.items()}),
        "a5-rx-threads": _digest({"%d-threads-%d-sinks" % key: gbps
                                  for key, gbps in rx_threads.items()}),
    }


def _datapath_exchange(name):
    """Host 0 sends each burst of :data:`DATAPATH_BURSTS` to host 1 through
    plugin ``name``'s own send and receive loops, 100 µs apart, every
    packet traced.  Returns what the ``datapaths`` digest hashes."""
    from functools import partial

    from repro.core.memory import SlotPool
    from repro.datapaths import (
        DpdkDatapath,
        KernelUdpDatapath,
        RdmaDatapath,
        XdpDatapath,
    )
    from repro.hw import LOCAL_TESTBED, Testbed
    from repro.netstack import Packet
    from repro.simnet import Counter, Timeout

    profile = LOCAL_TESTBED.replace(rdma_nic=name == "rdma")
    bed = Testbed(profile, seed=ENTRY_SEED)
    sim = bed.sim
    a, b = bed.hosts
    port = 7400
    if name == "udp":
        tx, rx = KernelUdpDatapath.get(a), KernelUdpDatapath.get(b)
        send = tx.socket(port).send_many
        recv = rx.socket(port).recv_many
    elif name == "rdma":
        tx, rx = RdmaDatapath(a), RdmaDatapath(b)
        tx_qp, rx_qp = tx.create_qp(port), rx.create_qp(port)
        send, recv = tx_qp.post_send_many, rx_qp.poll_recv
    else:
        if name == "dpdk":
            tx = DpdkDatapath(a)
            rx = DpdkDatapath(b, mempool=SlotPool(
                sim, DATAPATH_MEMPOOL_SLOTS, 2048, name="b.mempool"))
        else:
            tx, rx = XdpDatapath(a), XdpDatapath(b)
        send = tx.send_many
        recv = partial(rx.recv_burst, rx.open_port(port))
    sent = []
    batches = []

    def sender():
        for burst in DATAPATH_BURSTS:
            packets = []
            for _ in range(burst):
                seq = next(sim.ids)
                packets.append(Packet(a.ip, b.ip, port, port,
                                      b"%08d" % seq * 8, None, {}, seq))
            sent.extend(packets)
            yield from send(packets)
            yield Timeout(100_000.0)

    def receiver():
        while True:
            batch = yield from recv(max(DATAPATH_BURSTS))
            batches.append([sim.now] + [
                [packet.seq, packet.payload_bytes().hex()] for packet in batch
            ])

    sim.process(sender(), name="sender")
    sim.process(receiver(), name="receiver")
    sim.run()
    owners = {"tx": tx, "rx": rx}
    if name == "rdma":
        owners.update(tx_qp=tx_qp, rx_qp=rx_qp)
    return {
        "now": sim.now,
        "events": sim.stats()["events_executed"],
        "failures": len(sim.failures),
        "stamps": [packet.trace for packet in sent],
        "batches": batches,
        "counters": {
            "%s.%s" % (owner, attr): value.value
            for owner, obj in owners.items()
            for attr, value in vars(obj).items()
            if isinstance(value, Counter)
        },
    }


def compute_corpus():
    """Recompute every corpus entry from the current code."""
    from repro.bench.faults import _run_failover_once
    from repro.dist.sync import run_city_serial
    from repro.hw.generate import resolve_topology
    from repro.validate.workloads import random_spec, run_spec

    corpus = {
        "version": CORPUS_VERSION,
        "params": {
            "baselines": {
                "rounds": BASELINE_ROUNDS,
                "resolution": BASELINE_RESOLUTION,
                "frames": BASELINE_FRAMES, "seed": ENTRY_SEED,
            },
            "breakdown": {"messages": BREAKDOWN_MESSAGES,
                          "seed": ENTRY_SEED},
            "capacity": {
                "clients": list(CAPACITY_CLIENTS),
                "window_ns": CAPACITY_WINDOW_NS,
                "windows": CAPACITY_WINDOWS, "seed": ENTRY_SEED,
            },
            "engine": {
                "rounds": ENGINE_ROUNDS, "messages": ENGINE_MESSAGES,
                "seed": ENGINE_SEED,
            },
            "faults": {
                "seed": FAULTS_SEED, "messages": FAULTS_MESSAGES,
                "interval_ns": FAULTS_INTERVAL_NS,
                "fail_at_ns": FAULTS_FAIL_AT_NS,
            },
            "fanout": dict(FANOUT_RUNS, seed=ENTRY_SEED),
            "validate_seeds": list(VALIDATE_SEEDS),
            "city": {"topologies": list(CITY_TOPOLOGIES), "seed": CITY_SEED},
            "polling": {"rounds": POLLING_ROUNDS,
                        "messages": POLLING_MESSAGES, "seed": ENTRY_SEED},
            "datapaths": {"bursts": list(DATAPATH_BURSTS),
                          "mempool_slots": DATAPATH_MEMPOOL_SLOTS,
                          "seed": ENTRY_SEED},
        },
        "baselines": _baseline_digests(),
        "breakdown": _breakdown_digests(),
        "capacity": _capacity_digests(),
        "city": {},
        "datapaths": {name: _digest(_datapath_exchange(name))
                      for name in CAPACITY_DATAPATHS},
        "engine": {},
        "fanout": _fanout_digests(),
        "faults": {},
        "polling": _polling_digests(),
        "scenario": _scenario_digests(),
        "schedule": {},
        "validate": {},
    }
    for name in ENGINE_WORKLOADS:
        record = run_workload(name)
        corpus["engine"][name] = _digest(record["outcome"])
        corpus["schedule"][name] = record["stats"]["scheduled"]
    _results, faults_digest = _run_failover_once(
        FAULTS_SEED, FAULTS_MESSAGES, FAULTS_INTERVAL_NS, FAULTS_FAIL_AT_NS
    )
    corpus["faults"]["failover"] = faults_digest
    for seed in VALIDATE_SEEDS:
        result = run_spec(random_spec(seed))
        corpus["validate"]["seed-%d" % seed] = result.trace.digest()
    for name in CITY_TOPOLOGIES:
        spec = dict(resolve_topology(name), seed=CITY_SEED)
        run = run_city_serial(spec)
        corpus["city"][name] = run["digest"]
        corpus["schedule"]["city-" + name] = run["scheduled"]
    return corpus


def load_corpus(path=None):
    with open(path or corpus_path(), "r") as handle:
        return json.load(handle)


def check_corpus(path=None):
    """Compare the pinned corpus against freshly computed digests.

    Returns a list of mismatch strings (empty = corpus holds).
    """
    pinned = load_corpus(path)
    current = compute_corpus()
    problems = []
    if pinned.get("version") != current["version"]:
        problems.append(
            "corpus version %r != current %r (regenerate with "
            "insane validate golden --regen --force)"
            % (pinned.get("version"), current["version"])
        )
    if pinned.get("params") != current["params"]:
        problems.append(
            "corpus params changed: pinned %r, current %r"
            % (pinned.get("params"), current["params"])
        )
    for section in SECTIONS:
        pinned_section = pinned.get(section, {})
        what = "schedule count" if section == "schedule" else "golden digest"
        for key, value in current[section].items():
            expected = pinned_section.get(key)
            if expected is None:
                problems.append("corpus is missing %s/%s" % (section, key))
            elif expected != value:
                problems.append(
                    "%s moved: %s/%s pinned %s, current %s"
                    % (what, section, key, expected, value)
                )
        for key in pinned_section:
            if key not in current[section]:
                problems.append(
                    "corpus pins unknown entry %s/%s" % (section, key)
                )
    return problems


def regenerate_corpus(path=None, force=False):
    """Write a freshly computed corpus; refuses to overwrite unless forced."""
    path = path or corpus_path()
    if os.path.exists(path) and not force:
        raise FileExistsError(
            "%s already exists; golden corpora are only re-pinned "
            "deliberately — pass --force (insane validate golden --regen "
            "--force) to overwrite" % path
        )
    corpus = compute_corpus()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(corpus, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
