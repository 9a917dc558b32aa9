"""The pinned golden-trace corpus and its regeneration tool.

``tests/golden/corpus.json`` pins sha256 digests of the simulated results
of the paper workloads (fig5 ping-pong, fig8a streaming, fig8b 8-sink),
the failover bench, a handful of differential-validation workloads and
the serial runs of two generated cities — everything a behaviour-changing
commit would move.  The city entries anchor the partitioned runs too:
those are checked against the serial digest, which would not notice both
sides drifting together.  A tier-1 test (``tests/golden/test_corpus.py``)
recomputes and compares them, so trace drift fails CI with the exact
entry that moved.

The ``schedule`` section pins each paper workload's count of scheduler
round trips (``Simulator.stats()["scheduled"]``).  The engine's fused
paths skip round trips but count each step as executed, so the digests
cannot see whether they ran; a fused path that stops engaging raises
its workload's count.

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

#: city presets whose serial run is pinned, all at one seed.
CITY_TOPOLOGIES = ("smoke64", "city256")
CITY_SEED = 0

CORPUS_VERSION = 1


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


def compute_corpus():
    """Recompute every corpus entry from the current code."""
    from repro.bench.faults import _run_failover_once
    from repro.dist.sync import run_city_serial
    from repro.hw.generate import resolve_topology
    from repro.validate.workloads import random_spec, run_spec

    corpus = {
        "version": CORPUS_VERSION,
        "params": {
            "engine": {
                "rounds": ENGINE_ROUNDS, "messages": ENGINE_MESSAGES,
                "seed": ENGINE_SEED,
            },
            "faults": {
                "seed": FAULTS_SEED, "messages": FAULTS_MESSAGES,
                "interval_ns": FAULTS_INTERVAL_NS,
                "fail_at_ns": FAULTS_FAIL_AT_NS,
            },
            "validate_seeds": list(VALIDATE_SEEDS),
            "city": {"topologies": list(CITY_TOPOLOGIES), "seed": CITY_SEED},
        },
        "city": {},
        "engine": {},
        "faults": {},
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
        corpus["city"][name] = run_city_serial(spec)["digest"]
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
    for section in ("city", "engine", "faults", "schedule", "validate"):
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
