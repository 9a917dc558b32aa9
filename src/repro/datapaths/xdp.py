"""The AF_XDP datapath: in-kernel fast path with a userspace UMEM ring.

XDP runs in the device driver and forwards raw frames to an AF_XDP socket
through a shared UMEM area — zero-copy, but each packet costs CPU to shuttle
between driver and socket (paper Table 1: per-packet CPU, no spinning
cores).  Slower than DPDK, much faster than the full kernel stack, and needs
no dedicated hardware: the QoS mapper picks it when acceleration is wanted
but resource consumption matters (paper §5.2).
"""

from repro.datapaths.base import Datapath, DatapathInfo
from repro.simnet import Get, Timeout
from repro.simnet.burst import TxChain, XdpRxChain


class XdpDatapath(Datapath):
    info = DatapathInfo(
        name="xdp",
        kernel_integration="in-kernel",
        api="AF_XDP socket",
        zero_copy=True,
        cpu_consumption="per-packet",
        dedicated_hardware=False,
    )

    rx_stages = XdpRxChain.stages

    def __init__(self, host):
        super().__init__(host)
        self.detect_ns = self.profile.scalar("xdp_poll_detect_ns")
        self.rx_burst = int(self.profile.scalar("dpdk_rx_burst"))
        self._queues = {}

    @classmethod
    def available(cls, profile):
        return profile.xdp_capable

    def open_port(self, port):
        """Attach the eBPF redirect program for ``port``; returns the UMEM
        fill queue the driver redirects matching frames into."""
        queue = self.nic.create_queue([port])
        self._queues[port] = queue
        return queue

    def close_port(self, port):
        self._queues.pop(port, None)
        self.nic.release_port(port)

    def send(self, packet):
        yield from self.send_many([packet])

    def send_many(self, packets):
        """Write descriptors to the TX ring and kick the driver once.

        The sendto() kick is the fixed component; it amortizes across the
        batch like a real AF_XDP submission.
        """
        if not packets:
            return
        yield TxChain(self, packets, ("ustack_tx", "xdp_tx"), "xdp_tx_done")

    def recv_burst(self, queue, max_burst=None):
        """Wait for redirected frames and process them through the
        userspace stack."""
        max_burst = max_burst or self.rx_burst
        first = yield Get(queue)
        yield Timeout(self.host.jitter(self.detect_ns))
        batch = [first] + queue.drain(max_burst - 1)
        yield XdpRxChain(self, batch)
        return batch
