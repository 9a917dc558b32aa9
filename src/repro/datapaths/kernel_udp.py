"""The kernel UDP/IP datapath (AF_INET sockets).

Packets destined to unsteered ports land in the NIC's default ring, where a
per-host *kernel receive process* (IRQ + softirq context) runs protocol
processing and demultiplexes datagrams into per-socket buffers.
Applications then pay the receive-side syscall cost plus either a
busy-polling detection delay (non-blocking sockets) or a scheduler wake-up
(blocking sockets) — the gap the paper's Fig. 7 measures.
"""

from repro.datapaths.base import Datapath, DatapathInfo
from repro.simnet import Counter, Get, Store, Timeout
from repro.simnet.burst import KernelRxChain, TxChain


class KernelUdpDatapath(Datapath):
    """One per host; lazily started with the first socket."""

    info = DatapathInfo(
        name="udp",
        kernel_integration="in-kernel",
        api="AF_INET socket",
        zero_copy=False,
        cpu_consumption="per-packet",
        dedicated_hardware=False,
    )

    def __init__(self, host):
        super().__init__(host)
        self.detect_ns = self.profile.scalar("udp_poll_detect_ns")
        self._sockets = {}
        self.rx_burst = int(self.profile.scalar("udp_rx_burst"))
        self.no_socket_drops = Counter(host.name + ".udp.no_socket_drops")
        self.socket_overflow_drops = Counter(host.name + ".udp.sockbuf_drops")
        self._rx_process = self.sim.process(self._kernel_rx_loop(), name=host.name + ".softirq")

    @classmethod
    def get(cls, host):
        """The per-host singleton (the kernel exists once per machine).

        The host owns it, so it lives and dies with its simulation.
        """
        instance = host.kernel_udp
        if instance is None:
            instance = host.kernel_udp = cls(host)
        return instance

    def socket(self, port, blocking=False):
        """Open a UDP socket bound to ``port``."""
        if port in self._sockets:
            raise ValueError("port %d already bound on %s" % (port, self.host.name))
        socket = UdpSocket(self, port, blocking)
        self._sockets[port] = socket
        return socket

    def _close_socket(self, port):
        self._sockets.pop(port, None)

    def _kernel_rx_loop(self):
        """IRQ + softirq processing: NIC default ring -> socket buffers.

        Batches mimic NAPI: when a backlog exists, per-packet cost
        amortizes its fixed component.  Each drained batch executes as one
        :class:`KernelRxChain` — identical per-packet charges and rng
        order, one trampoline activation per batch.
        """
        ring = self.nic.rx_ring
        while True:
            first = yield Get(ring)
            batch = [first] + ring.drain(self.rx_burst - 1)
            yield KernelRxChain(self, batch)


class UdpSocket:
    """A bound UDP socket with the paper's enlarged receive buffer."""

    def __init__(self, datapath, port, blocking):
        self.datapath = datapath
        self.host = datapath.host
        self.port = port
        self.blocking = blocking
        self.buffer = Store(
            datapath.sim,
            capacity=datapath.profile.scalar("socket_buffer_slots"),
            name="%s.udp%d" % (self.host.name, port),
        )
        self.closed = False

    def close(self):
        self.closed = True
        self.datapath._close_socket(self.port)

    # -- send ----------------------------------------------------------------

    def send(self, packet):
        """Send one datagram (one sendto syscall)."""
        yield from self.send_many([packet])

    def send_many(self, packets):
        """Send a batch in one activation (models sendmmsg amortization)."""
        self._check_open()
        if not packets:
            return
        yield TxChain(self.datapath, packets, ("udp_tx",), "udp_tx_done")

    # -- receive ---------------------------------------------------------------

    def recv(self):
        """Receive one datagram, paying the mode-appropriate latency."""
        self._check_open()
        packet = yield Get(self.buffer)
        scalars = self.datapath.profile.scalars
        if self.blocking:
            yield Timeout(self.host.jitter(scalars["wakeup_ns"]))
        else:
            yield Timeout(self.host.jitter(scalars["udp_poll_detect_ns"]))
        packet.stamp("app_rx", self.datapath.sim.now)
        return packet

    def recv_many(self, max_burst):
        """Drain up to ``max_burst`` datagrams (models recvmmsg)."""
        self._check_open()
        first = yield Get(self.buffer)
        scalars = self.datapath.profile.scalars
        if self.blocking:
            yield Timeout(self.host.jitter(scalars["wakeup_ns"]))
        else:
            yield Timeout(self.host.jitter(scalars["udp_poll_detect_ns"]))
        batch = [first] + self.buffer.drain(max_burst - 1)
        for packet in batch:
            packet.stamp("app_rx", self.datapath.sim.now)
        return batch

    def _check_open(self):
        if self.closed:
            raise RuntimeError("socket on port %d is closed" % self.port)
