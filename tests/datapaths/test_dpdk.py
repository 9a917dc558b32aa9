"""DPDK datapath tests: steering, mempool lifecycle, burst amortization,
and Fig. 7 latency calibration."""

import pytest

from repro.datapaths import DpdkDatapath, KernelUdpDatapath
from repro.hw import Testbed
from repro.netstack import Packet
from tests.datapaths.conftest import DropRecord, mean, run_dpdk_pingpong


def test_steered_traffic_bypasses_kernel(local_bed):
    sim = local_bed.sim
    a, b = local_bed.hosts
    kernel_b = KernelUdpDatapath.get(b)
    dp_b = DpdkDatapath(b)
    queue = dp_b.open_port(7100)
    dp_a = DpdkDatapath(a)

    def tx():
        yield from dp_a.send(Packet(a.ip, b.ip, 7100, 7100, payload=b"fast"))

    sim.process(tx())
    sim.run()
    # the packet sits in the DPDK queue, untouched by the kernel
    assert len(queue) == 1
    assert kernel_b.rx_packets.value == 0
    assert len(b.nic.rx_ring) == 0


def test_payload_staged_into_mempool(local_bed):
    sim = local_bed.sim
    a, b = local_bed.hosts
    dp_b = DpdkDatapath(b)
    queue = dp_b.open_port(7200)
    dp_a = DpdkDatapath(a)
    received = []

    def tx():
        yield from dp_a.send(Packet(a.ip, b.ip, 7200, 7200, payload=b"zero-copy"))

    def rx():
        packets = yield from dp_b.recv_burst(queue)
        received.extend(packets)

    sim.process(tx())
    sim.process(rx())
    sim.run()
    (packet,) = received
    assert packet.payload_bytes() == b"zero-copy"
    assert dp_b.mempool.in_use == 1
    DpdkDatapath.release_rx(packet)
    assert dp_b.mempool.in_use == 0


def test_mempool_exhaustion_drops_packets():
    bed = Testbed.local(seed=9)
    sim = bed.sim
    a, b = bed.hosts
    from repro.core.memory import SlotPool

    tiny_pool = SlotPool(sim, slots=2, slot_bytes=2048, name="tiny")
    dp_b = DpdkDatapath(b, mempool=tiny_pool)
    queue = dp_b.open_port(7300)
    dp_a = DpdkDatapath(a)
    received = []

    def tx():
        for index in range(5):
            yield from dp_a.send(Packet(a.ip, b.ip, 7300, 7300, payload_len=64))

    def rx():
        while len(received) + dp_b.mempool_drops.value < 5:
            packets = yield from dp_b.recv_burst(queue)
            received.extend(packets)  # never released: pool starves

    sim.process(tx())
    sim.process(rx())
    sim.run()
    assert len(received) == 2
    assert dp_b.mempool_drops.value == 3


def test_mempool_drop_closes_the_traced_record():
    bed = Testbed.local(seed=9)
    sim = bed.sim
    a, b = bed.hosts
    from repro.core.memory import SlotPool

    one_slot = SlotPool(sim, slots=1, slot_bytes=2048, name="one")
    dp_b = DpdkDatapath(b, mempool=one_slot)
    queue = dp_b.open_port(7300)
    dp_a = DpdkDatapath(a)
    kept, lost = DropRecord(), DropRecord()
    dropped_at = []

    def tx():
        for record in (kept, lost):
            yield from dp_a.send(Packet(a.ip, b.ip, 7300, 7300, payload_len=64,
                                        trace=record))

    def rx():
        while dp_b.rx_packets.value + dp_b.mempool_drops.value < 2:
            yield from dp_b.recv_burst(queue)  # never released: pool starves
            if dp_b.mempool_drops.value and not dropped_at:
                dropped_at.append(sim.now)

    sim.process(tx())
    sim.process(rx())
    sim.run()
    assert dp_b.mempool_drops.value == 1
    assert kept.drops == []
    assert lost.drops == [(dropped_at[0],
                           "dpdk: mempool exhausted on %s" % b.name)]


def test_duplicate_steering_rejected(local_bed):
    dp = DpdkDatapath(local_bed.hosts[0])
    dp.open_port(7400)
    with pytest.raises(ValueError):
        dp.open_port(7400)
    dp.close_port(7400)
    dp.open_port(7400)


def test_burst_amortizes_fixed_costs():
    """Sending 32 packets as one burst must be much cheaper per packet
    than 32 single sends."""
    bed = Testbed.local(seed=11)
    sim = bed.sim
    a, b = bed.hosts
    dp = DpdkDatapath(a)
    timings = {}

    def single():
        start = sim.now
        for _ in range(32):
            yield from dp.send(Packet(a.ip, b.ip, 7500, 7500, payload_len=64))
        timings["single"] = sim.now - start

    sim.process(single())
    sim.run()

    def burst():
        start = sim.now
        packets = [Packet(a.ip, b.ip, 7500, 7500, payload_len=64) for _ in range(32)]
        yield from dp.send_many(packets)
        timings["burst"] = sim.now - start

    sim.process(burst())
    sim.run()
    assert timings["burst"] < 0.55 * timings["single"]


class TestLatencyCalibration:
    """Raw DPDK RTT must land on the paper's Fig. 7 values (±5 %)."""

    def test_raw_dpdk_local_rtt(self):
        rtts = run_dpdk_pingpong(Testbed.local(seed=12), rounds=300, size=64)
        assert mean(rtts) == pytest.approx(3_440, rel=0.05)

    def test_raw_dpdk_cloud_rtt(self):
        rtts = run_dpdk_pingpong(Testbed.cloud(seed=13), rounds=300, size=64)
        assert mean(rtts) == pytest.approx(6_550, rel=0.05)

    def test_rtt_flat_across_payload_sizes(self):
        small = mean(run_dpdk_pingpong(Testbed.local(seed=14), rounds=200, size=64))
        large = mean(run_dpdk_pingpong(Testbed.local(seed=15), rounds=200, size=1024))
        assert (large - small) / small < 0.15
