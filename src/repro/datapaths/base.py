"""The datapath plugin contract and shared helpers."""

from dataclasses import dataclass

from repro.netstack.packet import trace_drop
from repro.simnet import Counter, Get, Timeout


@dataclass(frozen=True)
class DatapathInfo:
    """Static capability metadata: one row of the paper's Table 1."""

    name: str
    kernel_integration: str      # "in-kernel" | "kernel-bypassing"
    api: str                     # "AF_INET socket", "RTE", "Verbs", ...
    zero_copy: bool
    cpu_consumption: str         # "per-packet" | "busy polling" | "hw offload"
    dedicated_hardware: bool


class Datapath:
    """Base class for datapath plugins.

    Subclasses define :attr:`info`, the cost stages they charge, their
    poll-detect latency ``detect_ns``, and the technology-specific
    send/receive mechanics.  ``send`` and receive methods are generators
    meant to run inside the calling thread's process
    (``yield from dp.send(...)``), so CPU time lands on the right simulated
    core.  A burst is charged packet by packet: one ``Timeout`` per packet
    carrying that packet's stage costs, each stage's jitter drawn in stage
    order, and the packet acted on when its ``Timeout`` completes
    (DESIGN.md §11, "The batching contract").
    """

    info = None  # overridden by subclasses

    #: stage keys :meth:`send_many` charges per packet, in order, and the
    #: trace key it stamps when a packet's charges are done
    tx_stages = ()
    tx_done_key = None

    #: stage keys charged per packet drained from this plugin's receive
    #: queue, read by :meth:`recv_burst` and by the INSANE runtime, and the
    #: trace key stamped when they are done.  Empty for kernel UDP, whose
    #: softirq charges ``udp_rx`` before a packet reaches a socket.
    rx_stages = ()
    rx_done_key = None

    def __init__(self, host):
        self.host = host
        self.sim = host.sim
        self.profile = host.profile
        self.nic = host.nic
        self.tx_packets = Counter("%s.%s.tx" % (host.name, self.info.name))
        self.rx_packets = Counter("%s.%s.rx" % (host.name, self.info.name))
        # fluid-tier accounting (repro.fluid): packets the aggregate model
        # carried analytically instead of as per-packet events; separate
        # from the event-driven counters so conservation across fidelity
        # modes is checkable
        self.fluid_tx_packets = Counter(
            "%s.%s.fluid_tx" % (host.name, self.info.name))
        self.fluid_rx_packets = Counter(
            "%s.%s.fluid_rx" % (host.name, self.info.name))
        #: fault-injection state (repro.faults): a failed datapath drops
        #: every frame handed to it instead of reaching the NIC.
        self.failed = False
        self.failed_drops = Counter("%s.%s.failed_drops" % (host.name, self.info.name))

    def account_fluid(self, tx=0, rx=0):
        """Account modelled (not simulated) packets through this plugin."""
        if tx:
            self.fluid_tx_packets.value += tx
        if rx:
            self.fluid_rx_packets.value += rx

    # -- fault injection ---------------------------------------------------

    def fail(self):
        """Mark the technology failed (driver crash, unbound NIC, ...)."""
        self.failed = True

    def restore(self):
        """Clear the failed state; subsequent transmits reach the NIC."""
        self.failed = False

    def _drop_failed(self, packet):
        """Swallow a frame handed to a failed datapath, reclaiming its TX
        buffer so the pool does not leak with the dead driver."""
        buffer = packet.tx_buffer
        if buffer is not None:
            packet.tx_buffer = None
            buffer.pool.release(buffer)
        self.failed_drops.value += 1
        trace = packet.trace
        if trace is not None:
            trace_drop(trace, self.sim.now, "datapath %s failed" % self.info.name)
        return self.sim.now

    # -- availability ------------------------------------------------------

    @classmethod
    def available(cls, profile):
        """Whether this technology can run on a host with ``profile``."""
        return True

    # -- helpers shared by plugins ------------------------------------------

    def send(self, packet):
        """Transmit one packet: a burst of one."""
        yield from self.send_many([packet])

    def send_many(self, packets):
        """Transmit a burst: per packet, charge :attr:`tx_stages` (fixed
        components amortized across the burst), stamp
        :attr:`tx_done_key` and hand the packet to the NIC."""
        stage_cost = self.host.stage_cost
        stages = self.tx_stages
        done_key = self.tx_done_key
        burst = len(packets)
        for packet in packets:
            size = packet.payload_len
            cost = 0.0
            for key in stages:
                cost += stage_cost(key, size, burst=burst)
            yield Timeout(cost)
            trace = packet.trace
            if trace is not None:
                trace[done_key] = self.sim.now
            self.transmit(packet)

    def recv_burst(self, queue, max_burst=None):
        """Busy-poll ``queue`` until a packet arrives; returns the packets
        of the drained batch that :meth:`_accept` kept.

        The poll-loop reaction time (half a spin iteration on average) is
        charged once per burst; :attr:`rx_stages` are charged per packet,
        their fixed components amortized across the burst.
        """
        first = yield Get(queue)
        yield Timeout(self.host.jitter(self.detect_ns))
        batch = [first] + queue.drain((max_burst or self.rx_burst) - 1)
        stage_cost = self.host.stage_cost
        stages = self.rx_stages
        burst = len(batch)
        kept = []
        for packet in batch:
            size = packet.payload_len
            cost = 0.0
            for key in stages:
                cost += stage_cost(key, size, burst=burst)
            yield Timeout(cost)
            if self._accept(packet):
                trace = packet.trace
                if trace is not None:
                    trace[self.rx_done_key] = self.sim.now
                self.rx_packets.value += 1
                kept.append(packet)
        return kept

    def _accept(self, packet):
        """Take a received frame into userspace; False drops it."""
        payload = packet.payload
        if type(payload) is memoryview:
            packet.payload = bytes(payload)
        return True

    def transmit(self, packet):
        """Hand ``packet`` to the NIC, which releases its TX buffer when
        the frame has fully left the host (the DMA read is then complete)."""
        if self.failed:
            return self._drop_failed(packet)
        payload = packet.payload
        if isinstance(payload, memoryview):
            # The NIC's DMA engine reads the slot during serialization;
            # capture the bytes so the slot can be recycled immediately.
            packet.payload = bytes(payload)
        if packet.trace is not None:
            packet.trace["nic_handoff"] = self.sim.now
        departure = self.nic.transmit(packet)
        self.tx_packets.value += 1
        return departure
