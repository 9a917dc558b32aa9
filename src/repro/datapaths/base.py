"""The datapath plugin contract and shared helpers."""

from dataclasses import dataclass

from repro.netstack.packet import trace_drop
from repro.simnet import Counter


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
    core.
    """

    info = None  # overridden by subclasses

    #: stage keys the INSANE runtime charges per packet it drains from this
    #: plugin's receive queue: the plugin's RX chain (repro.simnet.burst).
    #: Empty for kernel UDP, whose softirq chain already charged udp_rx.
    rx_stages = ()

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
