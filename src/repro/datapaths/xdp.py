"""The AF_XDP datapath: in-kernel fast path with a userspace UMEM ring.

XDP runs in the device driver and forwards raw frames to an AF_XDP socket
through a shared UMEM area — zero-copy, but each packet costs CPU to shuttle
between driver and socket (paper Table 1: per-packet CPU, no spinning
cores).  Slower than DPDK, much faster than the full kernel stack, and needs
no dedicated hardware: the QoS mapper picks it when acceleration is wanted
but resource consumption matters (paper §5.2).
"""

from repro.datapaths.base import Datapath, DatapathInfo
from repro.hw.profiles import DATAPATH_STAGES


class XdpDatapath(Datapath):
    info = DatapathInfo(
        name="xdp",
        kernel_integration="in-kernel",
        api="AF_XDP socket",
        zero_copy=True,
        cpu_consumption="per-packet",
        dedicated_hardware=False,
    )

    #: a burst is one TX-ring submission and one sendto() kick, whose
    #: fixed cost amortizes across the burst like a real AF_XDP send
    tx_stages, rx_stages = DATAPATH_STAGES["xdp"]
    tx_done_key = "xdp_tx_done"
    rx_done_key = "xdp_rx_done"

    def __init__(self, host):
        super().__init__(host)
        self.detect_ns = self.profile.scalar("xdp_poll_detect_ns")
        self.rx_burst = int(self.profile.scalar("dpdk_rx_burst"))

    @classmethod
    def available(cls, profile):
        return profile.xdp_capable

    def open_port(self, port):
        """Attach the eBPF redirect program for ``port``; returns the UMEM
        fill queue the driver redirects matching frames into."""
        return self.nic.create_queue([port])

    def close_port(self, port):
        self.nic.release_port(port)
