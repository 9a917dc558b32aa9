"""Seeded city-scale topology generation (ROADMAP item 1).

The paper's testbeds stop at two hosts and one switch; INSANE's pitch —
QoS-aware acceleration across an *edge cloud* — only becomes interesting
at hundreds of nodes.  This module generates that scale deterministically:
``N`` edge hosts spread over ``R`` regions, a two-tier switch fabric (one
ToR per region plus a core), and DiffServ-style QoS classes on every
trunk port (:class:`~repro.hw.switch.QosSwitchPort`), all a pure function
of ``(seed, spec)``.

The workload is frame-level: paced one-way flows plus request/response
("rpc") flows against a per-region service host placed by
:class:`~repro.cloud.placement.RegionPlacer`.  Per-datapath software
costs are charged as fixed stage sums from the hardware profile — no
jitter, no rng draws during simulation — so a run's delivery records are
bit-identical however the event graph is executed.  That property is what
:mod:`repro.dist` builds on: the same :class:`CityNetwork` builder
constructs either the whole city in one simulator (serial reference) or
one region-subset per partition, with trunk traffic crossing the cut
through a :class:`TrunkCable` boundary instead of a local link.

Float discipline: a boundary arrival is computed as ``now +
trunk_propagation_ns`` — the *same* expression :meth:`Simulator.schedule`
evaluates — so the event instant on the far side of the cut is
bit-identical to the serial run's.  Per-flow phase offsets are derived
from sha256 at full double precision, which keeps event timestamps
distinct (no ties to arbitrate) across the whole city.
"""

import hashlib
import json
import math
import random

from repro.hw.host import Host
from repro.hw.link import Link
from repro.hw.nic import Frame, Nic
from repro.hw.switch import Switch, SwitchPort
from repro.netstack import Packet

#: datapath -> (tx stage keys, rx stage keys) charged per message as a
#: fixed (jitter-free) cost from the hardware profile.
DATAPATH_STAGES = {
    "udp": (("udp_tx",), ("udp_rx",)),
    "xdp": (("xdp_tx",), ("xdp_rx",)),
    "dpdk": (("ustack_tx", "dpdk_tx"), ("dpdk_rx", "ustack_rx")),
    "rdma": (("rdma_post",), ("rdma_poll_cq",)),
}

#: first send instant (ns); every flow k-th message launches at
#: ``CITY_EPOCH_NS + phase + k * interval`` plus its datapath tx cost.
CITY_EPOCH_NS = 1000.0

#: spec key -> (default, validator); the full generator vocabulary.
_SPEC_DEFAULTS = {
    "hosts": 64,
    "regions": 4,
    "classes": 3,
    "flows_per_host": 1,
    "messages": 8,
    "size": 512,
    "interval_ns": 20_000.0,
    "trunk_propagation_ns": 20_000.0,
    "access_propagation_ns": 500.0,
    "tor_forward_ns": 600.0,
    "core_forward_ns": 1355.0,
    "trunk_queue_ns": 2_000_000.0,
    "service_ns": 2_000.0,
    "rpc_every": 3,
    "datapath": "udp",
    "profile": "cloud",
    "seed": 0,
}

#: named city presets — the vocabulary ``topology: <name>`` resolves.
#: Content-addressed by :func:`topology_digest`, so editing a preset
#: invalidates every cached cell that named it.
CITY_PRESETS = {
    "smoke64": {"hosts": 64, "regions": 4, "messages": 8},
    "city256": {"hosts": 256, "regions": 8, "messages": 6},
    "metro1k": {"hosts": 1024, "regions": 16, "messages": 4,
                "flows_per_host": 1},
}


def _topology_error(message):
    from repro.core.errors import TopologyError

    return TopologyError(message)


def normalize_city_spec(spec):
    """Validate a city spec and fill defaults; returns the canonical dict.

    Raises :class:`~repro.core.errors.TopologyError` on unknown keys or
    out-of-range values — a generator spec is topology, and bad topology
    fails at build time here like everywhere else.
    """
    if not isinstance(spec, dict):
        raise _topology_error(
            "a city spec must be a mapping, got %s" % type(spec).__name__
        )
    unknown = sorted(set(spec) - set(_SPEC_DEFAULTS))
    if unknown:
        raise _topology_error(
            "unknown city spec key(s) %s (known: %s)"
            % (", ".join(unknown), ", ".join(sorted(_SPEC_DEFAULTS)))
        )
    out = dict(_SPEC_DEFAULTS)
    out.update(spec)
    for key in ("hosts", "regions", "classes", "flows_per_host", "messages",
                "size", "rpc_every", "seed"):
        value = out[key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise _topology_error("%s must be an integer, got %r"
                                  % (key, value))
    for key in ("interval_ns", "trunk_propagation_ns",
                "access_propagation_ns", "tor_forward_ns", "core_forward_ns",
                "trunk_queue_ns", "service_ns"):
        value = out[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise _topology_error("%s must be a finite number, got %r"
                                  % (key, value))
        out[key] = float(value)
    if out["hosts"] < 4:
        raise _topology_error("a city needs >= 4 hosts, got %d" % out["hosts"])
    if not 2 <= out["regions"] <= out["hosts"] // 2:
        raise _topology_error(
            "regions must be in [2, hosts/2] (>= 2 hosts per region), "
            "got %d regions for %d hosts" % (out["regions"], out["hosts"])
        )
    if out["hosts"] // out["regions"] > 254:
        raise _topology_error("more than 254 hosts per region does not fit "
                              "the 10.R.0.K address plan")
    if not 1 <= out["classes"] <= 8:
        raise _topology_error("classes must be in [1, 8], got %d"
                              % out["classes"])
    for key, lo in (("flows_per_host", 1), ("messages", 1), ("size", 1),
                    ("rpc_every", 0), ("seed", 0)):
        if out[key] < lo:
            raise _topology_error("%s must be >= %d, got %d"
                                  % (key, lo, out[key]))
    if out["interval_ns"] <= 0 or out["trunk_propagation_ns"] <= 0 \
            or out["access_propagation_ns"] <= 0:
        raise _topology_error(
            "interval_ns, trunk_propagation_ns and access_propagation_ns "
            "must be > 0 (trunk propagation is the conservative lookahead)"
        )
    if out["trunk_queue_ns"] <= 0:
        raise _topology_error("trunk_queue_ns must be > 0")
    for key in ("tor_forward_ns", "core_forward_ns", "service_ns"):
        if out[key] < 0:
            raise _topology_error("%s must be >= 0, got %r" % (key, out[key]))
    if out["datapath"] not in DATAPATH_STAGES:
        raise _topology_error(
            "unknown datapath %r (choose from %s)"
            % (out["datapath"], ", ".join(sorted(DATAPATH_STAGES)))
        )
    from repro.hw.profiles import PROFILES

    if out["profile"] not in PROFILES:
        raise _topology_error(
            "unknown profile %r (choose from %s)"
            % (out["profile"], ", ".join(sorted(PROFILES)))
        )
    return out


def resolve_topology(value):
    """A city spec from a preset name or a mapping, normalized."""
    if isinstance(value, str):
        preset = CITY_PRESETS.get(value)
        if preset is None:
            raise _topology_error(
                "unknown city preset %r (presets: %s)"
                % (value, ", ".join(sorted(CITY_PRESETS)))
            )
        return normalize_city_spec(preset)
    return normalize_city_spec(value)


def topology_digest(value):
    """sha256 over the *resolved* canonical spec content.

    Presets are resolved by name first, so a cache entry keyed through
    this digest goes stale the moment the preset's content changes —
    even though the cell that named it is byte-identical.
    """
    spec = resolve_topology(value)
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def class_queue_ceilings(spec):
    """Per-class queue-delay ceilings (ns) for the trunk ports.

    Lower class index = higher priority = shallower queue: the EF-style
    class 0 gets ``trunk_queue_ns / classes`` (latency-bounded), the
    lowest class the full ``trunk_queue_ns`` (throughput-tolerant).
    """
    classes = spec["classes"]
    base = spec["trunk_queue_ns"]
    return {cls: base * (cls + 1) / classes for cls in range(classes)}


def _phase_ns(seed, flow_id, interval_ns):
    """A full-double phase offset in ``[0, interval)`` from sha256.

    53 effective random bits per flow keep event timestamps distinct
    city-wide, so no two events ever tie at a shared contention point —
    the property that makes partitioned execution order-insensitive.
    """
    digest = hashlib.sha256(b"city-phase:%d:%d" % (seed, flow_id)).digest()
    fraction = int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return fraction * interval_ns


def city_plan(spec):
    """The deterministic build plan of one city: hosts, regions, flows.

    A pure function of the normalized spec (generation-time rng seeded
    from ``spec['seed']``); building the same plan twice — or in any
    partition of any run — yields identical dicts.
    """
    spec = normalize_city_spec(spec)
    rng = random.Random(spec["seed"] ^ 0xC17F)
    hosts = []
    regions = []
    base, extra = divmod(spec["hosts"], spec["regions"])
    cursor = 0
    for region in range(spec["regions"]):
        count = base + (1 if region < extra else 0)
        members = []
        for slot in range(count):
            index = cursor + slot
            hosts.append({
                "index": index,
                "name": "h%d" % index,
                "ip": "10.%d.0.%d" % (region, slot + 1),
                "region": region,
                # at least one accelerated host per region so the placer
                # always has an eligible target
                "accelerated": slot == 0 or rng.random() < 0.5,
            })
            members.append(index)
        regions.append({"index": region, "hosts": members})
        cursor += count

    from repro.cloud.placement import RegionPlacer

    placer = RegionPlacer(capacity_per_host=max(1, spec["flows_per_host"]))
    for region in regions:
        candidates = [hosts[i] for i in region["hosts"]]
        chosen = placer.place("svc-r%d" % region["index"], candidates,
                              requires_acceleration=True)
        region["service"] = chosen["index"]

    flows = []
    flow_id = 0
    for host in hosts:
        for _ in range(spec["flows_per_host"]):
            rpc = spec["rpc_every"] > 0 and \
                flow_id % spec["rpc_every"] == spec["rpc_every"] - 1
            if rpc:
                other = rng.randrange(spec["regions"] - 1)
                if other >= host["region"]:
                    other += 1
                dst = regions[other]["service"]
            else:
                dst = rng.randrange(spec["hosts"] - 1)
                if dst >= host["index"]:
                    dst += 1
            flows.append({
                "id": flow_id,
                "src": host["index"],
                "dst": dst,
                "kind": "rpc" if rpc else "paced",
                "cls": flow_id % spec["classes"],
                "phase_ns": _phase_ns(spec["seed"], flow_id,
                                      spec["interval_ns"]),
            })
            flow_id += 1
    return {"spec": spec, "hosts": hosts, "regions": regions, "flows": flows}


class TrunkCable:
    """The uplink side of a trunk: deliver locally or export the frame.

    Replaces the uplink port's view of the trunk link.  A frame bound for
    an owned region reaches the local core exactly as over a
    :class:`~repro.hw.link.Link` (arrival at ``now + propagation_ns``,
    the core's forwarding fused into this carry); a frame bound for a
    remote region becomes a boundary record at that same instant for
    :mod:`repro.dist.sync` to ship.  The serial build uses this class
    too, with every region owned, so the serial and partitioned event
    graphs share one code path.
    """

    def __init__(self, net, core_port):
        self.net = net
        self.core_port = core_port
        self.propagation_ns = float(net.spec["trunk_propagation_ns"])

    def carry(self, frame, sender):
        net = self.net
        sim = net.sim
        dst_region = net.region_of_ip(frame.dst_ip)
        # same float expression schedule() computes for the heap instant
        arrival = sim.now + self.propagation_ns
        if dst_region not in net.owned_regions:
            net.export_boundary(dst_region, arrival, frame)
        elif not self.core_port.arrive(frame, arrival):
            sim.schedule(self.propagation_ns, self.core_port.receive, frame)


class CityNetwork:
    """One generated city (or one region-subset of it) wired onto a sim.

    ``owned_regions=None`` builds the full city — the serial reference.
    A partition passes its owned region set; only those hosts, ToRs, and
    core ports are instantiated, and cross-cut traffic is exported as
    boundary records (consumed by :meth:`inject_boundary` on the owner).
    """

    def __init__(self, sim, spec, owned_regions=None, plan=None):
        self.plan = plan or city_plan(spec)
        self.spec = self.plan["spec"]
        self.sim = sim
        all_regions = set(range(self.spec["regions"]))
        self.owned_regions = (all_regions if owned_regions is None
                              else set(owned_regions))
        bad = self.owned_regions - all_regions
        if bad:
            raise _topology_error("cannot own unknown region(s) %s"
                                  % sorted(bad))

        from repro.hw.profiles import PROFILES

        profile = PROFILES[self.spec["profile"]]
        self.profile = profile
        size = self.spec["size"]
        tx_stages, rx_stages = DATAPATH_STAGES[self.spec["datapath"]]
        self.tx_cost_ns = sum(profile.stage(key).cost(size)
                              for key in tx_stages)
        self.rx_cost_ns = sum(profile.stage(key).cost(size)
                              for key in rx_stages)

        self._region_by_ip = {h["ip"]: h["region"] for h in self.plan["hosts"]}
        self._host_by_ip = {}
        self._service_hosts = {r["index"]: r["service"]
                               for r in self.plan["regions"]}
        ceilings = class_queue_ceilings(self.spec)

        self.hosts = {}          # host index -> Host (owned only)
        self.tors = {}           # region -> ToR Switch
        self.core = Switch(sim, profile, name="core")
        self.core.forward_ns = self.spec["core_forward_ns"]
        self.core_ports = {}     # region -> core trunk QoS port
        self.uplinks = {}        # region -> ToR uplink QoS port
        self.links = []
        # sentinel ingress for boundary-injected frames: never a table
        # target, so the hairpin check can't trip on it
        self._inject_port = SwitchPort(self.core, -1)

        all_ips = [h["ip"] for h in self.plan["hosts"]]
        for region in self.plan["regions"]:
            r = region["index"]
            if r not in self.owned_regions:
                continue
            tor = Switch(sim, profile, name="tor%d" % r)
            tor.forward_ns = self.spec["tor_forward_ns"]
            self.tors[r] = tor
            for index in region["hosts"]:
                record = self.plan["hosts"][index]
                host = Host(sim, profile, record["name"], record["ip"])
                host.nic = Nic(sim, profile, record["ip"],
                               name=record["name"] + ".nic")
                self.hosts[index] = host
                self._host_by_ip[record["ip"]] = host
                port = tor.new_port()
                self.links.append(Link(sim, host.nic, port,
                                       self.spec["access_propagation_ns"]))
                tor.bind(record["ip"], port)
                host.nic.rx_ring.on_item = self._make_drain(host)
            uplink = tor.new_qos_port(ceilings, region=r)
            self.uplinks[r] = uplink
            core_port = self.core.new_qos_port(ceilings, region=r)
            self.core_ports[r] = core_port
            # the trunk Link carries the core->ToR direction; the
            # ToR->core direction goes through the TrunkCable so remote
            # regions can be cut away (set *after* Link wires egress)
            self.links.append(Link(sim, core_port, uplink,
                                   self.spec["trunk_propagation_ns"]))
            uplink.egress = TrunkCable(self, core_port)
            for ip in all_ips:
                if self._region_by_ip[ip] != r:
                    tor.bind(ip, uplink)
            tor.check_reachable(all_ips)
        for ip in all_ips:
            r = self._region_by_ip[ip]
            if r in self.owned_regions:
                self.core.bind(ip, self.core_ports[r])
        self.core.check_reachable(
            ip for ip in all_ips
            if self._region_by_ip[ip] in self.owned_regions
        )

        #: delivery records [flow_id, msg_index, delivered_ns]
        self.deliveries = []
        #: boundary exports: dst region -> [(arrival, flow, k, is_reply)]
        self.outbox = []

    # -- topology queries --------------------------------------------------

    def region_of_ip(self, ip):
        return self._region_by_ip[ip]

    # -- workload ----------------------------------------------------------

    def schedule_workload(self):
        """Schedule every owned flow's first send (call once, before
        running); each send schedules the flow's next one."""
        for flow in self.plan["flows"]:
            if flow["src"] in self.hosts:
                self._schedule_send(flow, 0)

    def _schedule_send(self, flow, k):
        # the next send is queued while the current one fires, so it is
        # always on the heap before it is due and sim.peek() sees it
        base = CITY_EPOCH_NS + flow["phase_ns"]
        depart = base + k * self.spec["interval_ns"] + self.tx_cost_ns
        self.sim.schedule_abs(depart, self._launch, flow["id"], k)

    def _make_packet(self, flow, k, is_reply):
        src = self.plan["hosts"][flow["dst" if is_reply else "src"]]
        dst = self.plan["hosts"][flow["src" if is_reply else "dst"]]
        packet = Packet(src["ip"], dst["ip"], 4000, 5000,
                        payload_len=self.spec["size"], seq=next(self.sim.ids))
        packet.meta = {"qos_class": flow["cls"],
                       "city": (flow["id"], k, is_reply)}
        return packet

    def _launch(self, flow_id, k):
        flow = self.plan["flows"][flow_id]
        if k + 1 < self.spec["messages"]:
            self._schedule_send(flow, k + 1)
        packet = self._make_packet(flow, k, False)
        self.hosts[flow["src"]].nic.transmit(packet)

    def _send_reply(self, flow_id, k):
        flow = self.plan["flows"][flow_id]
        packet = self._make_packet(flow, k, True)
        self.hosts[flow["dst"]].nic.transmit(packet)

    def _make_drain(self, host):
        def drain():
            ring = host.nic.rx_ring
            while True:
                ok, packet = ring.try_get()
                if not ok:
                    return
                self._deliver(host, packet)
        return drain

    def _deliver(self, host, packet):
        flow_id, k, is_reply = packet.meta["city"]
        flow = self.plan["flows"][flow_id]
        delivered = self.sim.now + self.rx_cost_ns
        if flow["kind"] == "paced" or is_reply:
            self.deliveries.append([flow_id, k, delivered])
            return
        # rpc request at the service host: turn it around after the
        # service time plus the reply's tx datapath cost
        reply_at = delivered + self.spec["service_ns"] + self.tx_cost_ns
        self.sim.schedule_abs(reply_at, self._send_reply, flow_id, k)

    # -- boundary ----------------------------------------------------------

    def export_boundary(self, dst_region, arrival, frame):
        flow_id, k, is_reply = frame.packet.meta["city"]
        self.outbox.append((dst_region, arrival, flow_id, k, is_reply))

    def take_outbox(self):
        """Drain pending boundary exports (records, not frames)."""
        out = self.outbox
        self.outbox = []
        return out

    def inject_boundary(self, arrival, flow_id, k, is_reply):
        """Re-materialize a boundary frame arriving at the core at
        ``arrival`` (the bit-identical serial instant); the core's
        forwarding is fused into the injection like a trunk carry."""
        flow = self.plan["flows"][flow_id]
        frame = Frame(self._make_packet(flow, k, is_reply))
        port = self._inject_port
        if not port.arrive(frame, arrival):
            self.sim.schedule_abs(arrival, port.receive, frame)

    # -- records -----------------------------------------------------------

    def records(self):
        """This build's contribution to the run's delivery/drop record.

        Keys are union-mergeable across partitions: every host, ToR, and
        core trunk port is owned by exactly one partition.  The core's
        ``forwarded`` count is the one summed quantity (each replica
        forwards the frames bound for its regions).
        """
        counters = {}
        for r, tor in sorted(self.tors.items()):
            counters["tor%d.forwarded" % r] = tor.forwarded.value
            counters["tor%d.dropped" % r] = tor.dropped.value
            counters["tor%d.hairpin_dropped" % r] = tor.hairpin_dropped.value
            for cls, dropped in sorted(self.uplinks[r].class_dropped.items()):
                counters["tor%d.uplink.class%d.dropped" % (r, cls)] = dropped
            for cls, dropped in sorted(
                    self.core_ports[r].class_dropped.items()):
                counters["core.region%d.class%d.dropped" % (r, cls)] = dropped
        for index, host in sorted(self.hosts.items()):
            counters["h%d.rx_frames" % index] = host.nic.rx_frames.value
            counters["h%d.rx_dropped" % index] = host.nic.rx_dropped.value
            counters["h%d.tx_frames" % index] = host.nic.tx_frames.value
        return {
            "deliveries": sorted(self.deliveries),
            "counters": counters,
            "core_forwarded": self.core.forwarded.value,
        }
