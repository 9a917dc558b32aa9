"""The RDMA datapath: two-sided operations over RoCEv2.

INSANE commits to the two-sided subset only (paper §3): SEND/RECV through a
queue pair.  Protocol processing is offloaded to the NIC, so the host pays
only work-request posting and completion-queue polling; a compatible NIC is
required (``profile.rdma_nic``), which is why the default QoS mapping
prefers RDMA whenever it is present.
"""

from repro.datapaths.base import Datapath, DatapathInfo
from repro.simnet import Counter, Get, Timeout
from repro.simnet.burst import RdmaRxChain, RdmaTxChain


class RdmaDatapath(Datapath):
    info = DatapathInfo(
        name="rdma",
        kernel_integration="kernel-bypassing",
        api="Verbs",
        zero_copy=True,
        cpu_consumption="hardware offloading",
        dedicated_hardware=True,
    )

    rx_stages = RdmaRxChain.stages

    def __init__(self, host):
        super().__init__(host)
        self.detect_ns = self.profile.scalar("rdma_poll_detect_ns")
        self.rx_burst = int(self.profile.scalar("dpdk_rx_burst"))
        self._queue_pairs = {}

    @classmethod
    def available(cls, profile):
        return profile.rdma_nic

    def create_qp(self, port, recv_depth=512):
        """Open a queue pair whose receive queue is fed by flow steering."""
        if port in self._queue_pairs:
            raise ValueError("queue pair on port %d already exists" % port)
        queue = self.nic.create_queue([port], capacity=recv_depth)
        qp = QueuePair(self, port, queue)
        self._queue_pairs[port] = qp
        return qp

    def close_qp(self, port):
        self._queue_pairs.pop(port, None)
        self.nic.release_port(port)


class QueuePair:
    """A send/receive work-queue pair plus its completion accounting."""

    def __init__(self, datapath, port, recv_queue):
        self.datapath = datapath
        self.port = port
        self.recv_queue = recv_queue
        self.posted_sends = Counter("qp%d.posted_sends" % port)
        self.completions = Counter("qp%d.completions" % port)

    def post_send(self, packet):
        """Post a SEND work request; the NIC does everything else."""
        yield from self.post_send_many([packet])

    def post_send_many(self, packets):
        if not packets:
            return
        yield RdmaTxChain(self.datapath, packets, self.posted_sends)

    def poll_recv(self, max_burst=None):
        """Poll the completion queue for received messages.

        Two-sided RDMA requires pre-posted receives; the flow-steered queue
        capacity models the posted-receive depth, and overflow drops mirror
        receiver-not-ready errors.
        """
        max_burst = max_burst or self.datapath.rx_burst
        first = yield Get(self.recv_queue)
        yield Timeout(self.datapath.host.jitter(self.datapath.detect_ns))
        batch = [first] + self.recv_queue.drain(max_burst - 1)
        yield RdmaRxChain(self.datapath, batch, self.completions)
        return batch
