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
        # bound once: every frame routed out of this port schedules its
        # emit, and each attribute access would allocate a bound method
        self.emit = self.emit

    def receive(self, frame):
        """Frame fully arrived from the attached NIC: its arrival event."""
        self.arrive(frame, None)

    def arrive(self, frame, arrival):
        """Route ``frame``, in through this port, to its output port's
        ``emit`` ``forward_ns`` later; returns whether it was routed.  The
        switch's one routing routine.

        ``arrival`` None: this is the frame's arrival event, which also
        counts and traces a frame to drop (no route, or a hairpin back out
        this port).  Otherwise a fused carry (DESIGN.md §11) calls at send
        time with the arrival instant and ``_executed`` counts the elided
        event; a frame to drop, and every frame while an engine observer
        must see the arrival event, is then left alone for its arrival
        event.
        """
        switch = self.switch
        sim = switch.sim
        port = switch.table.get(frame.dst_ip)
        if port is None or port is self:
            if arrival is None:
                if port is None:
                    switch.dropped.value += 1
                    reason = "switch: no route to %s" % frame.dst_ip
                else:
                    switch.hairpin_dropped.value += 1
                    reason = "switch: hairpin on port %d to %s" % (
                        port.index, frame.dst_ip)
                trace = frame.packet.trace
                if trace is not None:
                    trace_drop(trace, sim.now, reason)
            return False
        if arrival is None:
            arrival = sim.now
            sim.schedule(switch.forward_ns, port.emit, frame)
        elif sim.observer is None:
            sim.schedule_abs(arrival + switch.forward_ns, port.emit, frame)
            sim._executed += 1  # parity with the elided arrival event
        else:
            return False
        switch.forwarded.value += 1
        trace = frame.packet.trace
        if trace is not None:
            trace["switch_in"] = arrival
        return True

    def emit(self, frame):
        """Serialize ``frame`` out of this port after any queued frames."""
        switch = self.switch
        sim = switch.sim
        now = sim.now
        serialization = frame.wire_size * 8.0 / switch.bandwidth_gbps
        start = self._tx_free_at
        if start < now:
            start = now
        departure = start + serialization
        queued = departure - now - serialization
        trace = frame.packet.trace
        if queued > switch.max_port_queue_ns:
            switch.dropped.value += 1
            if trace is not None:
                trace_drop(trace, now,
                           "switch port %d queue overflow" % self.index)
            return
        self._tx_free_at = departure
        if trace is not None:
            # departure, not now: the stage covers port-queue residency
            trace["switch_out"] = departure
        # schedule(departure - now) computes the same now+delay sum as
        # schedule_at would, without the extra call
        sim.schedule(departure - now, self.egress.carry, frame, self)


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

    ``_held`` counts the frames admitted and not yet departed: with none,
    the port is idle and serves an emitted frame at once, and a departure
    scans the queues only when a frame waits.
    """

    def __init__(self, switch, index, class_queue_ns):
        super().__init__(switch, index)
        if not class_queue_ns:
            raise ValueError("a QoS port needs at least one class")
        #: class index -> queue-delay ceiling (ns) for frames of that class
        self.class_queue_ns = dict(class_queue_ns)
        classes = sorted(self.class_queue_ns)
        #: class -> (class, ceiling, FIFO); a frame's class resolves with
        #: one probe, an unknown one to the lowest class's entry
        self._lanes = {cls: (cls, self.class_queue_ns[cls], deque())
                       for cls in classes}
        self._lowest = self._lanes[classes[-1]]
        self._by_priority = [self._lanes[cls][2] for cls in classes]
        self._held = 0
        self.class_dropped = {cls: 0 for cls in classes}
        self._depart = self._depart  # bound once, like ``emit``

    def emit(self, frame):
        switch = self.switch
        sim = switch.sim
        now = sim.now
        meta = frame.packet.meta
        cls, ceiling, queue = self._lanes.get(
            meta.get("qos_class") if meta else None, self._lowest)
        serialization = frame.wire_size * 8.0 / switch.bandwidth_gbps
        start = self._tx_free_at
        if start < now:
            start = now
        if start - now > ceiling:
            switch.dropped.value += 1
            self.class_dropped[cls] += 1
            trace = frame.packet.trace
            if trace is not None:
                trace_drop(trace, now, "switch port %d class %d queue overflow"
                           % (self.index, cls))
            return
        self._tx_free_at = start + serialization
        if self._held:
            queue.append((frame, serialization))
        else:
            sim.schedule(serialization, self._depart, frame)
        self._held += 1

    def _depart(self, frame):
        sim = self.switch.sim
        trace = frame.packet.trace
        if trace is not None:
            trace["switch_out"] = sim.now
        self.egress.carry(frame, self)
        self._held -= 1
        if not self._held:
            return
        for queue in self._by_priority:
            if queue:
                frame, serialization = queue.popleft()
                sim.schedule(serialization, self._depart, frame)
                return


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
