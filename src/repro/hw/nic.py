"""Network interface card model.

A :class:`Nic` owns a transmit serializer (one frame on the wire at a time,
at line rate) and a bounded receive ring.  Ring overflow drops frames and is
counted — the mechanism behind the paper's observation that "a single sender
easily overflows a single-core sink" (§8).
"""

from repro.netstack.packet import WIRE_OVERHEAD, trace_drop
from repro.simnet import Counter, Store


class Frame:
    """A packet in flight between NICs, with link-layer bookkeeping."""

    __slots__ = ("packet", "src_ip", "dst_ip", "wire_size")

    def __init__(self, packet):
        self.packet = packet
        self.src_ip = packet.src_ip
        self.dst_ip = packet.dst_ip
        # inline of Packet.wire_size: one property call fewer per frame
        self.wire_size = packet.payload_len + WIRE_OVERHEAD

    def __repr__(self):
        return "Frame(%r)" % (self.packet,)


class Nic:
    """A single-port NIC attached to a link or a switch port."""

    def __init__(self, sim, profile, ip, name=None):
        self.sim = sim
        self.profile = profile
        self.ip = ip
        self.name = name or ("nic-%s" % ip)
        self.rx_ring = Store(sim, capacity=profile.nic_rx_ring_slots, name=self.name + ".rx")
        self._steering = {}  # dst_port -> queue (receive flow steering)
        self.egress = None  # the Link, set by topology wiring
        self.tx_frames = Counter(self.name + ".tx_frames")
        self.rx_frames = Counter(self.name + ".rx_frames")
        self.rx_dropped = Counter(self.name + ".rx_dropped")
        # fluid-tier accounting (repro.fluid): frames the aggregate model
        # carried analytically instead of as simulated events.  Kept apart
        # from the event-driven counters so conservation is checkable:
        # full-DES tx_frames == hybrid (tx_frames + fluid_tx_frames).
        self.fluid_tx_frames = Counter(self.name + ".fluid_tx_frames")
        self.fluid_rx_frames = Counter(self.name + ".fluid_rx_frames")
        self.fluid_tx_bytes = 0.0
        self.fluid_rx_bytes = 0.0
        self._tx_free_at = 0.0
        #: squeezes in force, oldest first (see :meth:`squeeze_queues`)
        self._squeezes = []
        # hot-path scalars, hoisted out of the per-packet profile lookups
        self._bandwidth_gbps = profile.nic_bandwidth_gbps
        self._tx_dma_ns = profile.nic_tx_dma_ns
        self._rx_dma_ns = profile.nic_rx_dma_ns
        # Fast-engine departure release (DESIGN.md §6): a frame holding a
        # TX slot frees it at the end of its departure event, the link's
        # carry, instead of in a second event at the same instant.  The
        # legacy engine keeps the two-event form.
        self._fuse = getattr(sim, "_lane", None) is not None
        # bound once: every received frame schedules it, and each
        # attribute access would allocate a bound method
        self._place_in_ring = self._place_in_ring

    # -- transmit ----------------------------------------------------------

    def tx_backlog_ns(self, now):
        """How far ahead of ``now`` the transmit queue is committed."""
        return max(0.0, self._tx_free_at - now)

    def transmit(self, packet):
        """Queue ``packet`` for transmission; returns its wire departure time.

        Models DMA fetch followed by store-and-forward serialization on the
        NIC's single transmit queue.  The packet's ``tx_buffer``, if any,
        returns to its pool when the frame departs: the DMA read is then
        complete.
        """
        if self.egress is None:
            raise RuntimeError("%s is not wired to a link" % self.name)
        frame = Frame(packet)
        sim = self.sim
        now = sim.now
        start = now + self._tx_dma_ns
        if start < self._tx_free_at:
            start = self._tx_free_at
        departure = start + frame.wire_size * 8.0 / self._bandwidth_gbps
        self._tx_free_at = departure
        self.tx_frames.value += 1
        if packet.trace is not None:
            packet.trace["nic_tx_departure"] = departure
        # schedule(departure - now) computes the same now+delay sum as
        # schedule_at would, without the extra call
        buffer = packet.tx_buffer
        if buffer is None:
            sim.schedule(departure - now, self.egress.carry, frame, self)
            return departure
        packet.tx_buffer = None
        if self._fuse and sim.observer is None:
            sim.schedule(departure - now, self.egress.carry, frame, self,
                         buffer)
        else:
            sim.schedule(departure - now, self.egress.carry, frame, self)
            sim.schedule(departure - now, buffer.pool.release, buffer)
        return departure

    def account_fluid_tx(self, frames, byte_count=0.0):
        """Account ``frames`` modelled (not simulated) outgoing frames."""
        self.fluid_tx_frames.value += frames
        self.fluid_tx_bytes += byte_count

    def account_fluid_rx(self, frames, byte_count=0.0):
        """Account ``frames`` modelled (not simulated) incoming frames."""
        self.fluid_rx_frames.value += frames
        self.fluid_rx_bytes += byte_count

    # -- receive -----------------------------------------------------------

    def receive(self, frame):
        """Called by the wire when a frame fully arrives at this NIC."""
        self.sim.schedule(self._rx_dma_ns, self._place_in_ring, frame)

    def arrive(self, frame, arrival):
        """Fused receive: land ``frame``, still on the wire, in the ring
        at ``fl(arrival + dma)``; False (nothing done) while an engine
        observer must see the receive event."""
        sim = self.sim
        if sim.observer is not None:
            return False
        sim.schedule_abs(arrival + self._rx_dma_ns, self._place_in_ring, frame)
        sim._executed += 1  # parity with the elided receive hop
        return True

    def _place_in_ring(self, frame):
        packet = frame.packet
        trace = packet.trace
        if trace is not None:
            trace["nic_rx_arrival"] = self.sim.now
        queue = self._steering.get(packet.dst_port, self.rx_ring)
        if queue.try_put(packet):
            self.rx_frames.value += 1
        else:
            self.rx_dropped.value += 1
            if trace is not None:
                trace_drop(trace, self.sim.now,
                           "nic rx ring overflow: %s" % self.name)

    # -- fault injection ----------------------------------------------------

    def _all_queues(self):
        queues = [self.rx_ring]
        for queue in self._steering.values():
            if queue not in queues:
                queues.append(queue)
        return queues

    def squeeze_queues(self, capacity):
        """Shrink every receive queue to ``capacity`` slots (fault
        injection: models descriptor/memory pressure on the NIC — frames
        beyond the squeezed capacity are dropped and counted).  Returns
        the squeeze, which :meth:`restore_queues` lifts.

        Squeezes may overlap: the latest one in force sets the
        capacities, and each queue gets its own capacity back once every
        squeeze is lifted, in whatever order they are lifted."""
        if capacity < 1:
            raise ValueError("squeezed capacity must be >= 1")
        saved = {}
        for queue in self._all_queues():
            saved[queue] = queue.capacity
            queue.capacity = capacity
        self._squeezes.append(saved)
        return saved

    def restore_queues(self, saved):
        """Lift a :meth:`squeeze_queues`.  The latest squeeze in force
        puts back the capacities it replaced; an earlier one hands them to
        the squeeze that replaced its own, which puts them back."""
        squeezes = self._squeezes
        for index, entry in enumerate(squeezes):
            if entry is saved:
                break
        else:
            raise ValueError("%s: that squeeze is not in force" % self.name)
        del squeezes[index]
        if index < len(squeezes):
            squeezes[index].update(saved)
            return
        for queue, capacity in saved.items():
            queue.capacity = capacity

    # -- receive flow steering ----------------------------------------------

    def create_queue(self, ports, capacity=None):
        """Steer the given destination ports to a dedicated receive queue.

        Models the NIC's receive flow steering: kernel-bypassing datapaths
        claim their traffic by port so the kernel (default ring) never sees
        it.  Returns the new queue.
        """
        queue = Store(
            self.sim,
            capacity=capacity or self.profile.nic_rx_ring_slots,
            name="%s.q%d" % (self.name, len(self._steering)),
        )
        for port in ports:
            if port in self._steering:
                raise ValueError("port %d already steered on %s" % (port, self.name))
            self._steering[port] = queue
        return queue

    def release_port(self, port):
        self._steering.pop(port, None)
