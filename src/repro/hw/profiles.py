"""Calibrated testbed profiles.

Every timing constant in the simulation lives here.  Each constant is a
*component cost* of a software or hardware pipeline stage, expressed as a
:class:`StageCost` with three terms::

    cost(burst, size) = fixed / burst + per_pkt + per_byte * size     [ns]

The ``fixed`` term is paid once per batch (syscall, poll-loop reaction,
burst-call overhead) and therefore amortizes under load; ``per_pkt`` and
``per_byte`` are paid for every packet.  This single model reproduces both
the latency experiments (burst == 1) and the throughput experiments (bursts
grow under load) of the paper.

Calibration targets (paper Fig. 7, 64 B RTT, local testbed / CloudLab):

=================  ==========  ===========
System             Local (µs)  Cloud (µs)
=================  ==========  ===========
Blocking UDP        27.20       ~38
Non-blocking UDP    12.58       19.10
Catnap              13.34       21.33
INSANE slow         13.66       23.27
Catnip               4.26        7.40
INSANE fast          4.95       10.43
Raw DPDK             3.44        6.55
=================  ==========  ===========

One-way compositions used for the local numbers (64 B, ns):

* hardware path = nic_tx_dma 250 + serialization ~10 + propagation 100
  + nic_rx_dma 250 = 610
* raw DPDK sw = [ustack_tx 220 + dpdk_tx 250] + [detect 139 + dpdk_rx 285
  + ustack_rx 220] = 1 114; one-way 1 724 -> RTT 3.45
* kernel UDP sw = udp_tx 2 472 + udp_rx 2 972 + detect 240 = 5 684;
  one-way 6 294 -> RTT 12.59; blocking replaces detect with wakeup 7 550
* INSANE adds per side: ipc 90 + sched/dispatch (slow 180, fast 188)
  + pool exchange (fast only, 100): slow +270/side, fast +378/side
* Catnap +190/side; Catnip +205/side over raw DPDK

Throughput anchors (local, Fig. 8/9b): INSANE fast 25.98 Gbps @1 KB single
sink and ~90 Gbps @8 KB; INSANE slow 4.69 Gbps @1 KB; raw DPDK approaches
NIC line rate at large payloads; Catnip capped by unbatched per-packet
transmit cost.
"""

from dataclasses import dataclass, field


@dataclass(frozen=True)
class StageCost:
    """CPU cost of one pipeline stage (see module docstring)."""

    fixed: float = 0.0
    per_pkt: float = 0.0
    per_byte: float = 0.0

    def cost(self, size, burst=1):
        """Cost in ns to process one packet of ``size`` payload bytes when
        the stage handles ``burst`` packets in one activation."""
        if burst < 1:
            raise ValueError("burst must be >= 1")
        return self.fixed / burst + self.per_pkt + self.per_byte * size


@dataclass(frozen=True)
class TestbedProfile:
    """A complete description of one of the paper's testbeds."""

    name: str
    description: str
    # -- hardware ---------------------------------------------------------
    nic_bandwidth_gbps: float = 100.0
    nic_tx_dma_ns: float = 250.0          # DMA engine + PCIe posting, per frame
    nic_rx_dma_ns: float = 250.0
    nic_rx_ring_slots: int = 1024
    link_propagation_ns: float = 100.0    # per cable segment
    switch_forward_ns: float = 0.0        # store-and-forward + lookup, per traversal
    #: drop a frame that would wait longer than this in a switch output
    #: queue (deep-buffer default matching the historical hard-coded value)
    switch_port_queue_ns: float = 2_000_000.0
    has_switch: bool = False
    mtu: int = 1500
    jumbo_mtu: int = 9000
    cores: int = 18
    cpu_jitter: float = 0.015             # relative sigma on software stage costs
    # -- hardware availability (drives QoS mapping) -----------------------
    rdma_nic: bool = False                # paper: RDMA "not yet available in
                                          # most cloud settings"
    xdp_capable: bool = True
    dpdk_capable: bool = True
    # -- per-stage software costs -----------------------------------------
    stages: dict = field(default_factory=dict)
    # -- scalar constants --------------------------------------------------
    scalars: dict = field(default_factory=dict)

    def stage(self, key):
        try:
            return self.stages[key]
        except KeyError:
            raise KeyError("profile %r has no stage %r" % (self.name, key))

    def scalar(self, key):
        try:
            return self.scalars[key]
        except KeyError:
            raise KeyError("profile %r has no scalar %r" % (self.name, key))

    def replace(self, **kwargs):
        """A copy of this profile with fields overridden (for what-ifs)."""
        from dataclasses import replace as dc_replace

        return dc_replace(self, **kwargs)


def _local_stages():
    return {
        # ---- kernel UDP datapath --------------------------------------------
        # sender: syscall entry+exit, copy to skb, IP/UDP stack + qdisc.
        "udp_tx": StageCost(fixed=1550.0, per_pkt=900.0, per_byte=0.35),
        # receiver: IRQ+softirq, protocol processing, copy to user, recv path.
        "udp_rx": StageCost(fixed=1800.0, per_pkt=1150.0, per_byte=0.35),
        # ---- DPDK datapath ---------------------------------------------------
        "dpdk_tx": StageCost(fixed=180.0, per_pkt=70.0, per_byte=0.008),
        "dpdk_rx": StageCost(fixed=196.0, per_pkt=85.0, per_byte=0.06),
        # userspace network stack (the "packet processing engine")
        "ustack_tx": StageCost(fixed=180.0, per_pkt=40.0),
        "ustack_rx": StageCost(fixed=180.0, per_pkt=40.0),
        # ---- AF_XDP datapath (between kernel UDP and DPDK) -------------------
        "xdp_tx": StageCost(fixed=700.0, per_pkt=260.0, per_byte=0.02),
        "xdp_rx": StageCost(fixed=850.0, per_pkt=300.0, per_byte=0.06),
        # ---- RDMA two-sided datapath (offloaded; tiny host cost) -------------
        "rdma_post": StageCost(fixed=120.0, per_pkt=60.0),
        "rdma_poll_cq": StageCost(fixed=150.0, per_pkt=70.0),
        # ---- INSANE runtime ---------------------------------------------------
        # client library <-> runtime token ring (lock-free SPSC model)
        "insane_ipc": StageCost(fixed=60.0, per_pkt=30.0),
        # runtime scheduler pass at the sender (dequeue, QoS class, schedule)
        "insane_sched_slow": StageCost(per_pkt=180.0),
        "insane_sched_fast": StageCost(fixed=118.0, per_pkt=70.0),
        # runtime dispatch at the receiver (channel match, token fan-out)
        "insane_dispatch_slow": StageCost(per_pkt=180.0),
        "insane_dispatch_fast": StageCost(fixed=118.0, per_pkt=70.0),
        # mempool slot exchange with the DPDK mempool (fast mode only)
        "insane_pool_fast": StageCost(fixed=71.0, per_pkt=29.0),
        # ---- Demikernel (library OS: in-process, no IPC hop) ------------------
        "catnap_lib": StageCost(fixed=40.0, per_pkt=150.0),
        # Catnip is latency-optimized and "sends one packet per time on the
        # network": every push is synchronous with the wire (see
        # repro.baselines.demikernel), so only the library cost lives here.
        "catnip_lib": StageCost(per_pkt=205.0),
        # ---- MoM baselines over kernel UDP ------------------------------------
        # RTPS CDR (de)serialization: fixed part amortizes under load.
        "dds_serialize": StageCost(fixed=220.0, per_pkt=80.0, per_byte=0.02),
        # blocking receiver event loop: pure wake-up latency, amortizes away.
        "dds_eventloop": StageCost(fixed=3250.0),
        "zmq_pipeline": StageCost(fixed=9200.0, per_pkt=4600.0, per_byte=0.01),
        # ---- sendfile streaming baseline ---------------------------------------
        # the full kernel send path minus the userspace copy (sendfile is
        # sender-side zero-copy); replaces udp_tx entirely on this path
        "sendfile_tx": StageCost(fixed=1550.0, per_pkt=950.0, per_byte=0.02),
        "sendfile_rx": StageCost(fixed=1800.0, per_pkt=1150.0, per_byte=0.35),
        # ---- application-side costs --------------------------------------------
        "app_touch": StageCost(per_byte=0.02),     # app reads/writes payload
        # fragmentation memcpy into pool slots (~10 GB/s incl. cache misses):
        # this paces the LUNAR streaming server (Fig. 11)
        "frag_copy": StageCost(fixed=120.0, per_byte=0.1),
        # frame codec work (RLE/delta ~ 2.5 GB/s per core), charged on the
        # uncompressed byte count at both encode and decode
        "codec": StageCost(fixed=200.0, per_byte=0.4),
        "mom_layer": StageCost(per_pkt=44.0),      # LUNAR MoM topic hashing etc.
    }


def _local_scalars():
    return {
        # blocking socket receive pays a scheduler wake-up (Fig. 7 gap
        # between blocking and non-blocking UDP: (27.20-12.58)/2 per way).
        "wakeup_ns": 7550.0,
        # average reaction time of a non-blocking poll loop (half a loop)
        "udp_poll_detect_ns": 240.0,
        "dpdk_poll_detect_ns": 139.0,
        "xdp_poll_detect_ns": 400.0,
        "rdma_poll_detect_ns": 120.0,
        # per-additional-sink token fan-out cost in the receiver runtime
        "insane_fanout_per_sink_ns": 5.5,
        # beyond this many attached sink rings the runtime's working set
        # spills L2 and every dispatch pays a penalty per extra ring
        # (reproduces the Fig. 8b cliff between 6 and 8 sinks).
        "insane_l2_ring_budget": 6,
        "insane_l2_penalty_ns": 85.0,
        # opportunistic batching: max packets drained per scheduler pass
        "insane_tx_burst": 32,
        "dpdk_rx_burst": 32,
        "udp_rx_burst": 32,
        # memory pool defaults
        "pool_slots": 1024,
        "pool_slot_bytes": 9216,
        "ipc_ring_slots": 256,
        "socket_buffer_slots": 4096,
    }


def _cloud_stages():
    """CloudLab: AMD EPYC 7452 @ 2.35 GHz.

    Kernel-path costs scale ~1.30x (slower clock); DPDK driver costs are
    I/O-dominated and barely scale; the INSANE runtime and Demikernel
    library layers scale hardest (cross-CCX IPC and cache misses on EPYC),
    matching the paper's Fig. 6 analysis.
    """
    local = _local_stages()

    def scaled(key, factor):
        stage = local[key]
        return StageCost(
            fixed=stage.fixed * factor,
            per_pkt=stage.per_pkt * factor,
            per_byte=stage.per_byte * factor,
        )

    stages = dict(local)
    for key in ("udp_tx", "udp_rx", "sendfile_tx", "sendfile_rx",
                "xdp_tx", "xdp_rx"):
        stages[key] = scaled(key, 1.30)
    # INSANE runtime ops: one-way overhead 540 -> 2 085 ns (slow),
    # 756 -> 1 940 ns (fast); see module docstring targets.
    stages["insane_ipc"] = StageCost(fixed=140.0, per_pkt=180.0)
    stages["insane_sched_slow"] = StageCost(fixed=250.0, per_pkt=472.0)
    stages["insane_dispatch_slow"] = StageCost(fixed=250.0, per_pkt=472.0)
    stages["insane_sched_fast"] = StageCost(fixed=330.0, per_pkt=320.0)
    stages["insane_dispatch_fast"] = StageCost(fixed=330.0, per_pkt=320.0)
    stages["insane_pool_fast"] = StageCost(fixed=0.0, per_pkt=0.0)
    stages["catnap_lib"] = StageCost(fixed=150.0, per_pkt=407.0)
    stages["catnip_lib"] = StageCost(per_pkt=212.5)
    stages["dds_serialize"] = scaled("dds_serialize", 1.30)
    stages["dds_eventloop"] = scaled("dds_eventloop", 1.30)
    stages["zmq_pipeline"] = scaled("zmq_pipeline", 1.30)
    return stages


def _cloud_scalars():
    scalars = dict(_local_scalars())
    scalars["wakeup_ns"] = 9800.0
    scalars["udp_poll_detect_ns"] = 312.0
    return scalars


#: The paper's local edge testbed: two hosts, Intel i9-10980XE @ 3.00 GHz,
#: Mellanox ConnectX-6 Dx 100 Gbps, back-to-back cable (no switch).
LOCAL_TESTBED = TestbedProfile(
    name="local",
    description="Two back-to-back hosts, i9-10980XE @3.0 GHz, 100 Gbps",
    link_propagation_ns=100.0,
    has_switch=False,
    cores=18,
    stages=_local_stages(),
    scalars=_local_scalars(),
)

#: The paper's public-cloud testbed: CloudLab, AMD EPYC 7452 @ 2.35 GHz,
#: Mellanox ConnectX-5 100 Gbps, Dell Z9264F-ON switch in between.
#: The switch adds ~1.4 us store-and-forward per traversal (paper: "the
#: switch adds on average 1.7 us and packets must traverse it twice").
CLOUD_TESTBED = TestbedProfile(
    name="cloud",
    description="CloudLab: two hosts via Dell switch, EPYC 7452 @2.35 GHz",
    link_propagation_ns=150.0,
    switch_forward_ns=1355.0,
    has_switch=True,
    cores=32,
    stages=_cloud_stages(),
    scalars=_cloud_scalars(),
)

PROFILES = {"local": LOCAL_TESTBED, "cloud": CLOUD_TESTBED}

#: datapath -> (tx stage keys, rx stage keys): the stages one message
#: costs on each side, in charge order.  The plugins
#: (:mod:`repro.datapaths`) charge them per packet, with jitter; the
#: generated city (:mod:`repro.hw.generate`) charges their jitter-free
#: sum per message.  Kernel UDP's rx stage is charged by its softirq,
#: before a datagram reaches a socket.
DATAPATH_STAGES = {
    "udp": (("udp_tx",), ("udp_rx",)),
    "xdp": (("ustack_tx", "xdp_tx"), ("xdp_rx", "ustack_rx")),
    "dpdk": (("ustack_tx", "dpdk_tx"), ("dpdk_rx", "ustack_rx")),
    "rdma": (("rdma_post",), ("rdma_poll_cq",)),
}
