"""Store-and-forward Ethernet switch model.

The cloud testbed interposes a Dell Z9264F-ON between the hosts; the paper
measures it adding ~1.7 us per traversal.  The model charges a fixed
forwarding latency plus output-port serialization at line rate, with a
bounded output queue per port (ceiling from the profile's
``switch_port_queue_ns``).

Two port flavours exist:

* :class:`SwitchPort` — the classic single-FIFO port every testbed uses;
* :class:`QosSwitchPort` — a trunk port with DiffServ-style per-class
  queues and strict-priority service, used by the generated city fabrics
  (:mod:`repro.hw.generate`) on ToR uplinks and core ports.

Mis-wiring is a build-time error, not a runtime drop: callers that know
the full destination set validate it with :meth:`Switch.check_reachable`,
which raises :class:`~repro.core.errors.TopologyError` for any host the
forwarding table cannot reach.  At runtime, a frame resolving back out
its ingress port is counted under the distinct ``hairpin_dropped``
counter — never folded into ``dropped`` (missing routes), so the two
failure modes stay tellable apart in digests and reports.
"""

from collections import deque

from repro.netstack.packet import trace_drop
from repro.simnet import Counter


class SwitchPort:
    """One switch port; acts as the link endpoint facing a NIC."""

    #: generated-fabric annotation: which region this trunk port faces
    #: (None on plain testbed ports).
    region = None

    def __init__(self, switch, index):
        self.switch = switch
        self.index = index
        self.egress = None       # the Link wired to this port
        self._tx_free_at = 0.0

    def receive(self, frame):
        """Frame fully arrived from the attached NIC; hand to the fabric."""
        self.switch.forward(frame, self)

    def arrive(self, frame, arrival):
        """Fused receive: switch ``frame``, still on the wire, as of its
        ``arrival`` instant.  False (nothing done) for a frame to drop or
        while an engine observer must see the arrival event."""
        switch = self.switch
        return switch.sim.observer is None \
            and switch.forward(frame, self, arrival)

    def emit(self, frame):
        """Serialize ``frame`` out of this port after any queued frames."""
        sim = self.switch.sim
        serialization = frame.wire_size * 8.0 / self.switch.bandwidth_gbps
        start = max(sim.now, self._tx_free_at)
        departure = start + serialization
        queued = departure - sim.now - serialization
        trace = frame.packet.trace
        if queued > self.switch.max_port_queue_ns:
            self.switch.dropped.value += 1
            if trace is not None:
                trace_drop(trace, sim.now,
                           "switch port %d queue overflow" % self.index)
            return
        self._tx_free_at = departure
        if trace is not None:
            # departure, not now: the stage covers port-queue residency
            trace["switch_out"] = departure
        sim.schedule_at(departure, self.egress.carry, frame, self)


class QosSwitchPort(SwitchPort):
    """A trunk port with DiffServ-style per-class output queues.

    Frames carry their class under ``"qos_class"`` in the packet's cold
    ``meta`` dict (lower index = higher priority); a frame without a
    ``meta`` dict or a class rides the lowest class.
    The port keeps one FIFO per class and serves the highest-priority
    head at every departure (strict priority).  Admission is bounded per
    class: a frame whose wait-before-service would exceed its class's
    queue-delay ceiling is dropped on arrival — counted in the
    switch-wide ``dropped`` *and* the port's per-class ``class_dropped``,
    and it never advances the port's committed-transmit horizon.
    """

    def __init__(self, switch, index, class_queue_ns):
        super().__init__(switch, index)
        if not class_queue_ns:
            raise ValueError("a QoS port needs at least one class")
        #: class index -> queue-delay ceiling (ns) for frames of that class
        self.class_queue_ns = dict(class_queue_ns)
        self._classes = sorted(self.class_queue_ns)
        self._queues = {cls: deque() for cls in self._classes}
        self._busy = False
        self.class_dropped = {cls: 0 for cls in self._classes}

    def _class_of(self, frame):
        meta = frame.packet.meta
        cls = meta.get("qos_class") if meta else None
        return cls if cls in self._queues else self._classes[-1]

    def emit(self, frame):
        sim = self.switch.sim
        now = sim.now
        cls = self._class_of(frame)
        serialization = frame.wire_size * 8.0 / self.switch.bandwidth_gbps
        start = self._tx_free_at
        if start < now:
            start = now
        if start - now > self.class_queue_ns[cls]:
            self.switch.dropped.value += 1
            self.class_dropped[cls] += 1
            trace = frame.packet.trace
            if trace is not None:
                trace_drop(trace, now, "switch port %d class %d queue overflow"
                           % (self.index, cls))
            return
        self._tx_free_at = start + serialization
        self._queues[cls].append((frame, serialization))
        if not self._busy:
            self._start_next()

    def _start_next(self):
        for cls in self._classes:
            queue = self._queues[cls]
            if queue:
                frame, serialization = queue.popleft()
                self._busy = True
                self.switch.sim.schedule(serialization, self._depart, frame)
                return
        self._busy = False

    def _depart(self, frame):
        trace = frame.packet.trace
        if trace is not None:
            trace["switch_out"] = self.switch.sim.now
        self.egress.carry(frame, self)
        self._start_next()


class Switch:
    """A learning-free switch with a static IP-to-port table."""

    def __init__(self, sim, profile, name="switch"):
        self.sim = sim
        self.name = name
        self.bandwidth_gbps = profile.nic_bandwidth_gbps
        self.forward_ns = profile.switch_forward_ns
        #: drop frames that would wait more than this in an output queue
        #: (profile-calibrated; ad-hoc profile objects fall back to the
        #: historical deep-buffer default)
        self.max_port_queue_ns = getattr(
            profile, "switch_port_queue_ns", 2_000_000.0
        )
        self.ports = []
        self.table = {}
        self.forwarded = Counter(name + ".forwarded")
        self.dropped = Counter(name + ".dropped")
        #: frames whose route resolved back out their ingress port —
        #: a distinct failure mode from a missing route (``dropped``)
        self.hairpin_dropped = Counter(name + ".hairpin_dropped")

    def new_port(self):
        port = SwitchPort(self, len(self.ports))
        self.ports.append(port)
        return port

    def new_qos_port(self, class_queue_ns, region=None):
        """A trunk port with per-class queues (see :class:`QosSwitchPort`)."""
        port = QosSwitchPort(self, len(self.ports), class_queue_ns)
        port.region = region
        self.ports.append(port)
        return port

    def bind(self, ip, port):
        """Associate a destination IP with an output port."""
        self.table[ip] = port

    def check_reachable(self, ips):
        """Raise :class:`~repro.core.errors.TopologyError` unless every ip
        in ``ips`` resolves to an output port of this switch.

        Topology builders call this once after wiring; a destination that
        would silently drop every frame at runtime is a build bug.
        """
        missing = sorted(ip for ip in ips if ip not in self.table)
        if missing:
            from repro.core.errors import TopologyError

            raise TopologyError(
                "%s cannot reach %d host(s): %s — forwarding table is "
                "mis-wired" % (self.name, len(missing), ", ".join(missing))
            )

    def forward(self, frame, in_port, arrival=None):
        """Route ``frame`` in from ``in_port`` to its output port's
        ``emit``, ``forward_ns`` later; returns whether it was routed.

        ``arrival`` None: this is the frame's arrival event.  Otherwise a
        fused carry (DESIGN.md §11) calls at send time with the arrival
        instant and ``_executed`` counts the elided event; a frame to drop
        (no route, or a hairpin back out ``in_port``) is then left alone,
        so its arrival event counts the drop when it happens.
        """
        port = self.table.get(frame.dst_ip)
        trace = frame.packet.trace
        if port is None or port is in_port:
            if arrival is not None:
                return False
            if port is None:
                self.dropped.value += 1
                reason = "switch: no route to %s" % frame.dst_ip
            else:
                self.hairpin_dropped.value += 1
                reason = "switch: hairpin on port %d to %s" % (
                    port.index, frame.dst_ip)
            if trace is not None:
                trace_drop(trace, self.sim.now, reason)
            return False
        self.forwarded.value += 1
        sim = self.sim
        if arrival is None:
            arrival = sim.now
            sim.schedule(self.forward_ns, port.emit, frame)
        else:
            sim.schedule_abs(arrival + self.forward_ns, port.emit, frame)
            sim._executed += 1  # parity with the elided arrival event
        if trace is not None:
            trace["switch_in"] = arrival
        return True
