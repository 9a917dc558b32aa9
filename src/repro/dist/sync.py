"""Conservative null-message synchronization across city partitions.

Each partition runs its own :class:`~repro.simnet.engine.Simulator` over
its region subset of a generated city.  Partitions exchange two things
over ordered per-channel queues: *boundary frames* (trunk traffic whose
destination region lives elsewhere, shipped as compact descriptors and
re-materialized by the owner) and *clock announcements* (Chandy–Misra–
Bryant null messages).  A partition only executes events strictly below
``safe = min(in-channel clocks)``; its own announcements promise
``floor + lookahead`` where ``floor`` is the earliest thing it could
still do and the lookahead is the trunk propagation delay — strictly
positive, hence deadlock-free.

Bit-identical correctness, not statistical equivalence: a boundary
frame's arrival instant is the same float the serial run computes, the
model draws no rng during simulation, and per-flow phase offsets keep
event timestamps distinct city-wide, so event *timing* (the only thing
the records capture) is independent of execution interleaving.  The
merged records of a partitioned run therefore hash to the serial run's
digest exactly — :func:`check_partition_equivalence` asserts it.

Termination rides an explicit end-of-time horizon: the workload is
finite and every queue residency is ceiling-bounded, so
:func:`city_end_of_time` computes a provable upper bound on the last
event; once a partition's floor creeps past it, the partition announces
``+inf`` and finishes.  A real event at or beyond the horizon would be a
bound bug and raises instead of silently diverging.

Two transports run the identical protocol:

* ``"process"`` — one spawn worker per partition, ``multiprocessing``
  queues as channels (the headline: real parallel execution);
* ``"inline"`` — every partition driven round-robin in this process with
  deque channels (no nested-spawn restrictions, so sweep cells and tests
  can exercise the cut cheaply).

Each partition's simulator is self-contained: it mints its own packet ids
(``sim.ids``), and a packet never leaves it — boundary frames cross as
``(flow, k, is_reply)`` descriptors and are rebuilt by the owner — so the
inline transport interleaves partitions with no state swapped between
steps.
"""

import hashlib
import json
import math
import multiprocessing
import queue as queue_mod
import time
import traceback
from collections import deque

from repro.dist.partition import partition_regions, region_owner
from repro.hw.generate import (
    CITY_EPOCH_NS,
    CityNetwork,
    city_plan,
    resolve_topology,
)
from repro.netstack.packet import WIRE_OVERHEAD
from repro.simnet import Simulator

_INF = float("inf")

#: how long (wall-clock seconds) a blocked partition waits on a peer
#: channel before declaring the run wedged — generous; the protocol
#: guarantees the awaited announcement is already in flight.
BLOCK_TIMEOUT_S = 120.0

#: how often (wall-clock seconds) the parent, waiting for results, checks
#: whether a worker that has not reported has died.
_POLL_S = 0.2

#: delivery records :func:`city_digest` encodes per hash update
DIGEST_SLICE = 4096


def city_end_of_time(spec):
    """A provable upper bound on the last event instant of a city run.

    Every source is finite (``flows * messages`` sends, each queued by
    its flow's previous one, plus at most one rpc reply each), every
    queue residency is bounded (NIC backlog by total frames, switch
    queues by their admission ceilings, strict-priority starvation by
    total traffic through the port), so a generous sum of worst cases
    bounds the horizon.  Null-message clocks creep past this bound in
    ``horizon / lookahead`` exchanges and the run terminates.
    """
    from repro.hw.profiles import PROFILES

    profile = PROFILES[spec["profile"]]
    ser = (spec["size"] + WIRE_OVERHEAD) * 8.0 / profile.nic_bandwidth_gbps
    frames_total = spec["hosts"] * spec["flows_per_host"] * spec["messages"] * 2
    per_host = spec["flows_per_host"] * spec["messages"] * 4
    backlog = per_host * (ser + profile.nic_tx_dma_ns)
    hop = (
        spec["access_propagation_ns"] * 2.0
        + spec["trunk_propagation_ns"] * 2.0
        + spec["tor_forward_ns"] * 2.0
        + spec["core_forward_ns"]
        + spec["trunk_queue_ns"] * 2.0
        + profile.switch_port_queue_ns
        + frames_total * ser          # strict-priority starvation bound
        + profile.nic_rx_dma_ns * 2.0
        + profile.nic_tx_dma_ns
    )
    last_send = CITY_EPOCH_NS + spec["interval_ns"] * (spec["messages"] + 1)
    journey = backlog + hop
    return 4.0 * (last_send + 2.0 * journey + spec["service_ns"]) + 1e6


class PartitionRunner:
    """One partition's simulator plus its view of the sync protocol.

    Transport-agnostic: the drive loops (process worker, inline
    round-robin) own the channels and feed :meth:`receive` /
    :meth:`flush` with plain ``(clock, frames)`` messages.
    """

    def __init__(self, spec, index, assignment, plan=None):
        self.spec = spec
        self.index = index
        self.assignment = assignment
        self.owned = set(assignment[index])
        self.peers = [i for i in range(len(assignment)) if i != index]
        self.lookahead = float(spec["trunk_propagation_ns"])
        self.end_of_time = city_end_of_time(spec)
        self.sim = Simulator(seed=spec["seed"])
        self.net = CityNetwork(self.sim, spec, owned_regions=self.owned,
                               plan=plan)
        self.net.schedule_workload()
        self._owner = region_owner(assignment)
        #: latest clock announced BY each peer (our per-channel clocks)
        self.in_clock = {peer: 0.0 for peer in self.peers}
        #: latest clock we announced TO each peer (monotone)
        self.out_clock = {peer: 0.0 for peer in self.peers}
        self._outbuf = {peer: [] for peer in self.peers}
        self.done = False

    # -- protocol state ----------------------------------------------------

    def safe(self):
        """Highest time bound we may execute strictly below."""
        if not self.peers:
            return _INF
        bound = min(self.in_clock.values())
        return _INF if bound >= self.end_of_time else bound

    def floor(self):
        """Earliest instant this partition could still produce output."""
        nxt = self.sim.peek()
        if nxt is not None and nxt >= self.end_of_time:
            raise RuntimeError(
                "partition %d has an event at %.1f ns, at or past the "
                "end-of-time bound %.1f ns — city_end_of_time() is wrong"
                % (self.index, nxt, self.end_of_time)
            )
        bound = self.safe()
        if nxt is None:
            return bound
        return nxt if nxt < bound else bound

    def receive(self, peer, message):
        clock, frames = message
        for arrival, flow_id, k, is_reply in frames:
            if arrival < self.sim.now:
                raise RuntimeError(
                    "causality violated: partition %d received a frame "
                    "for %.3f ns from partition %d at local time %.3f ns"
                    % (self.index, arrival, peer, self.sim.now)
                )
            self.net.inject_boundary(arrival, flow_id, k, is_reply)
        if clock > self.in_clock[peer]:
            self.in_clock[peer] = clock

    def flush(self, send):
        """Route pending boundary exports and announce fresh clocks.

        ``send(peer, (clock, frames))`` delivers on the ordered channel.
        Returns True when anything was sent (the inline loop's progress
        signal — clock creep alone is progress, it is what unblocks
        peers).
        """
        for dst_region, arrival, flow_id, k, is_reply in \
                self.net.take_outbox():
            peer = self._owner[dst_region]
            self._outbuf[peer].append((arrival, flow_id, k, is_reply))
        here = self.floor()
        announce = _INF if here == _INF else here + self.lookahead
        sent = False
        for peer in self.peers:
            frames = self._outbuf[peer]
            clock = announce if announce > self.out_clock[peer] \
                else self.out_clock[peer]
            if not frames and clock == self.out_clock[peer]:
                continue
            self._outbuf[peer] = []
            self.out_clock[peer] = clock
            frames.sort()
            send(peer, (clock, frames))
            sent = True
        return sent

    def can_advance(self):
        nxt = self.sim.peek()
        return nxt is not None and nxt < self.safe()

    def advance(self):
        """Execute every local event strictly below the safe bound."""
        bound = self.safe()
        if bound == _INF:
            self.sim.run()
            return
        # run(until=) is inclusive; back off one ulp for strictly-below
        horizon = math.nextafter(bound, -_INF)
        if horizon > self.sim.now:
            self.sim.run(until=horizon)

    def finished(self):
        return self.sim.peek() is None and self.safe() == _INF

    def blocking_peer(self):
        """The peer whose channel clock gates progress (min, ties by id)."""
        return min(self.peers, key=lambda peer: (self.in_clock[peer], peer))

    def describe_stall(self, peer):
        """Where this partition stands while it waits on ``peer``: its
        clocks and the last announcement each way on that channel."""
        nxt = self.sim.peek()
        return (
            "partition %d: now %.1f ns, next event %s, safe %.1f ns; "
            "partition %d last announced %.1f ns, we last announced "
            "%.1f ns to it"
            % (self.index, self.sim.now,
               "none" if nxt is None else "%.1f ns" % nxt, self.safe(),
               peer, self.in_clock[peer], self.out_clock[peer])
        )

    def meta(self):
        return {
            "partition": self.index,
            "regions": sorted(self.owned),
            "hosts": len(self.net.hosts),
            "events": self.sim._executed,
            "now": self.sim.now,
        }


def _step(runner, recv_nowait, send):
    """One CMB step for both transports: drain every in-channel, flush,
    then finish or advance.  Returns whether anything happened; with no
    progress the partition can only wait on a peer's announcement."""
    progressed = False
    for peer in runner.peers:
        while True:
            message = recv_nowait(peer)
            if message is None:
                break
            runner.receive(peer, message)
            progressed = True
    if runner.flush(send):
        progressed = True
    if runner.finished():
        runner.done = True
        return True
    if runner.can_advance():
        runner.advance()
        return True
    return progressed


def _drive(runner, recv_nowait, recv_block, send):
    """The process worker's loop: step, and block on the gating peer's
    channel whenever a step makes no progress."""
    while not runner.done:
        if not _step(runner, recv_nowait, send):
            peer = runner.blocking_peer()
            runner.receive(peer, recv_block(peer))


# -- process transport -----------------------------------------------------


def _city_worker(spec, index, assignment, in_queues, out_queues,
                 result_queue):
    """Spawn-worker entry point: run one partition to completion."""
    try:
        runner = PartitionRunner(spec, index, assignment)

        def recv_nowait(peer):
            try:
                return in_queues[peer].get_nowait()
            except queue_mod.Empty:
                return None

        def recv_block(peer):
            try:
                return in_queues[peer].get(timeout=BLOCK_TIMEOUT_S)
            except queue_mod.Empty:
                raise RuntimeError(
                    "partition %d waited %.0fs on partition %d with no "
                    "announcement — the run is wedged (%s)"
                    % (index, BLOCK_TIMEOUT_S, peer,
                       runner.describe_stall(peer))
                )

        def send(peer, message):
            out_queues[peer].put(message)

        _drive(runner, recv_nowait, recv_block, send)
        result_queue.put(("result", index, runner.net.records(),
                          runner.meta()))
    except BaseException:
        result_queue.put(("error", index, traceback.format_exc()))


def _run_process(spec, assignment, mp_context="spawn"):
    ctx = multiprocessing.get_context(mp_context)
    count = len(assignment)
    channels = {
        (src, dst): ctx.Queue()
        for src in range(count)
        for dst in range(count)
        if src != dst
    }
    result_queue = ctx.Queue()
    workers = []
    for index in range(count):
        in_queues = {peer: channels[(peer, index)] for peer in range(count)
                     if peer != index}
        out_queues = {peer: channels[(index, peer)] for peer in range(count)
                      if peer != index}
        worker = ctx.Process(
            target=_city_worker,
            args=(spec, index, assignment, in_queues, out_queues,
                  result_queue),
            name="city-p%d" % index,
        )
        workers.append(worker)
    for worker in workers:
        worker.start()
    outcomes = {}
    try:
        silent_since = time.monotonic()
        while len(outcomes) < count:
            try:
                report = result_queue.get(timeout=_POLL_S)
            except queue_mod.Empty:
                report = _check_dead_workers(workers, outcomes, result_queue)
                if report is None:
                    if time.monotonic() - silent_since < BLOCK_TIMEOUT_S * 2:
                        continue
                    missing = [i for i in range(count) if i not in outcomes]
                    raise RuntimeError(
                        "partitioned run wedged: %d of %d partitions "
                        "reported; never reported: %s"
                        % (len(outcomes), count,
                           ", ".join("p%d" % i for i in missing))
                    )
            silent_since = time.monotonic()
            kind, index, *rest = report
            if kind == "error":
                raise RuntimeError(
                    "partition %d failed:\n%s" % (index, rest[0])
                )
            outcomes[index] = rest
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        for worker in workers:
            worker.join()
    return [(outcomes[i][0], outcomes[i][1]) for i in range(count)]


def _check_dead_workers(workers, outcomes, result_queue):
    """None while every worker yet to report is alive.  Otherwise drain
    the queue once more — an exited worker's result may still be in the
    pipe — and fail naming the dead partitions if it holds nothing."""
    dead = [(index, worker.exitcode) for index, worker in enumerate(workers)
            if index not in outcomes and worker.exitcode is not None]
    if not dead:
        return None
    try:
        return result_queue.get(timeout=_POLL_S)
    except queue_mod.Empty:
        raise RuntimeError(
            "partitioned run failed: %s; %d of %d partitions reported"
            % ("; ".join("partition p%d died before reporting (exit code "
                         "%s)" % (index, code) for index, code in dead),
               len(outcomes), len(workers))
        ) from None


# -- inline transport ------------------------------------------------------


def _run_inline(spec, assignment):
    """Every partition in this process, round-robin, deque channels.

    Same protocol, same per-partition simulators — only the channels and
    the scheduler differ.  Safe inside daemonic pool workers, where the
    process transport could not spawn.
    """
    plan = city_plan(spec)
    runners = [PartitionRunner(spec, index, assignment, plan=plan)
               for index in range(len(assignment))]
    channels = {
        (src.index, dst.index): deque()
        for src in runners
        for dst in runners
        if src is not dst
    }

    def ends(index):
        def recv_nowait(peer):
            channel = channels[(peer, index)]
            return channel.popleft() if channel else None

        def send(peer, message):
            channels[(index, peer)].append(message)

        return recv_nowait, send

    transports = [ends(runner.index) for runner in runners]
    while not all(runner.done for runner in runners):
        progressed = False
        for runner, (recv_nowait, send) in zip(runners, transports):
            if not runner.done and _step(runner, recv_nowait, send):
                progressed = True
        if not progressed:
            state = "; ".join(
                runner.describe_stall(runner.blocking_peer())
                for runner in runners
            )
            raise RuntimeError(
                "inline partitioned run deadlocked (%s) — the lookahead "
                "creep should make this impossible" % state
            )
    return [(runner.net.records(), runner.meta()) for runner in runners]


# -- records, merge, digest ------------------------------------------------


def city_digest(records):
    """sha256 over the canonical JSON of a city delivery/drop record.

    The bytes hashed are exactly ``json.dumps(records, sort_keys=True,
    separators=(",", ":"))``, but a list value (the deliveries) is
    encoded :data:`DIGEST_SLICE` items at a time: a metro-scale record's
    whole text and its encoded copy never exist at once.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    digest = hashlib.sha256()
    opener = b"{"
    for key in sorted(records):
        digest.update(opener + encode(key).encode() + b":")
        opener = b","
        value = records[key]
        if not isinstance(value, list):
            digest.update(encode(value).encode())
            continue
        digest.update(b"[")
        for start in range(0, len(value), DIGEST_SLICE):
            if start:
                digest.update(b",")
            text = encode(value[start:start + DIGEST_SLICE])
            digest.update(text[1:-1].encode())
        digest.update(b"]")
    digest.update(b"}")
    return digest.hexdigest()


def merge_partition_records(parts):
    """Union per-partition records into one run-wide record.

    Every delivery and counter key is owned by exactly one partition
    (hosts, ToRs, and core trunk ports never straddle the cut), so the
    merge is a disjoint union; the core replicas' ``forwarded`` totals
    are the one summed quantity.  A duplicate key is a cut bug and
    raises.
    """
    deliveries = []
    counters = {}
    core_forwarded = 0
    for records in parts:
        deliveries.extend(records["deliveries"])
        for key, value in records["counters"].items():
            if key in counters:
                raise RuntimeError(
                    "counter %r reported by two partitions — the region "
                    "cut is not disjoint" % key
                )
            counters[key] = value
        core_forwarded += records["core_forwarded"]
    deliveries.sort()
    return {
        "deliveries": deliveries,
        "counters": counters,
        "core_forwarded": core_forwarded,
    }


def run_city_serial(topology):
    """The serial reference: the whole city in one simulator."""
    spec = resolve_topology(topology)
    sim = Simulator(seed=spec["seed"])
    net = CityNetwork(sim, spec)
    net.schedule_workload()
    sim.run()
    if net.outbox:
        raise RuntimeError(
            "serial run exported %d boundary frames — it owns every "
            "region, so the cut logic is broken" % len(net.outbox)
        )
    records = net.records()
    return {
        "records": records,
        "digest": city_digest(records),
        "partitions": 1,
        "transport": "serial",
        "events": sim._executed,
        "scheduled": sim.stats()["scheduled"],
        "now": sim.now,
        "per_partition": [],
    }


def run_city_partitioned(topology, partitions, transport="process",
                         mp_context="spawn"):
    """Run a generated city across ``partitions`` simulators.

    ``transport="process"`` spawns one worker process per partition;
    ``"inline"`` drives the same protocol in this process.  Either way
    the merged records — and therefore the digest — are bit-identical to
    :func:`run_city_serial` of the same spec.
    """
    spec = resolve_topology(topology)
    if partitions == 1:
        return run_city_serial(spec)
    assignment = partition_regions(spec["regions"], partitions)
    if transport == "process":
        outcomes = _run_process(spec, assignment, mp_context=mp_context)
    elif transport == "inline":
        outcomes = _run_inline(spec, assignment)
    else:
        raise ValueError("unknown transport %r (process or inline)"
                         % (transport,))
    merged = merge_partition_records([records for records, _ in outcomes])
    metas = [meta for _, meta in outcomes]
    return {
        "records": merged,
        "digest": city_digest(merged),
        "partitions": partitions,
        "transport": transport,
        "events": sum(meta["events"] for meta in metas),
        "now": max(meta["now"] for meta in metas),
        "per_partition": metas,
    }


def check_partition_equivalence(topology, partitions=(2,),
                                transport="process"):
    """Serial-vs-partitioned digest equality for each partition count.

    Returns ``(problems, details)``: ``problems`` is a list of
    human-readable strings (empty = equivalent), ``details`` the serial
    and per-count run summaries (records stripped, digests kept).
    """
    spec = resolve_topology(topology)
    serial = run_city_serial(spec)
    details = {
        "spec": spec,
        "serial": _summary(serial),
        "partitioned": [],
    }
    problems = []
    for count in partitions:
        run = run_city_partitioned(spec, count, transport=transport)
        details["partitioned"].append(_summary(run))
        if run["digest"] != serial["digest"]:
            problems.append(
                "%d-partition %s run diverged from serial: %s != %s"
                % (count, transport, run["digest"][:16],
                   serial["digest"][:16])
            )
    return problems, details


def _summary(run):
    out = {key: value for key, value in run.items() if key != "records"}
    out["delivered"] = len(run["records"]["deliveries"])
    return out


# -- sweep-cell entry point ------------------------------------------------


def run_city_cell(topology="smoke64", partitions=1, datapath=None, seed=0):
    """``bench.city`` cell: one city run, summarized for sweeps.

    Partitioned cells use the inline transport — a sweep worker may
    itself be a daemonic pool process, which cannot spawn children; the
    protocol (and the digest) is the same either way.
    """
    spec = resolve_topology(topology)
    overrides = {"seed": seed}
    if datapath is not None:
        overrides["datapath"] = datapath
    spec = resolve_topology(dict(spec, **overrides))
    partitions = int(partitions)
    if partitions <= 1:
        run = run_city_serial(spec)
    else:
        run = run_city_partitioned(spec, partitions, transport="inline")
    records = run["records"]
    plan = city_plan(spec)
    paced = []
    rpc = []
    for flow_id, k, delivered in records["deliveries"]:
        flow = plan["flows"][flow_id]
        base = CITY_EPOCH_NS + flow["phase_ns"] + k * spec["interval_ns"]
        sample = delivered - base
        (paced if flow["kind"] == "paced" else rpc).append(sample)
    expected = len(plan["flows"]) * spec["messages"]
    delivered = len(records["deliveries"])
    counters = records["counters"]
    return {
        "topology": topology if isinstance(topology, str) else "custom",
        "hosts": spec["hosts"],
        "regions": spec["regions"],
        "classes": spec["classes"],
        "datapath": spec["datapath"],
        "partitions": partitions,
        "transport": run["transport"],
        "digest": run["digest"],
        "events": run["events"],
        "delivered": delivered,
        "expected": expected,
        "delivery_ratio": delivered / expected if expected else 0.0,
        "dropped": sum(value for key, value in counters.items()
                       if key.endswith("dropped")),
        "core_forwarded": records["core_forwarded"],
        "latency": _block(paced),
        "rpc_rtt": _block(rpc),
    }


def _block(samples):
    if not samples:
        return {"count": 0, "mean_ns": 0.0, "p50_ns": 0.0, "p99_ns": 0.0,
                "max_ns": 0.0}
    ordered = sorted(samples)
    count = len(ordered)
    return {
        "count": count,
        "mean_ns": sum(ordered) / count,
        "p50_ns": ordered[count // 2],
        "p99_ns": ordered[min(count - 1, (count * 99) // 100)],
        "max_ns": ordered[-1],
    }
