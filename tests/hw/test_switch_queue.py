"""Switch output-port queueing and overflow behaviour."""

import pytest

from repro.hw import CLOUD_TESTBED, Testbed
from repro.hw.nic import Frame
from repro.hw.switch import Switch
from repro.netstack import Packet
from repro.simnet import Simulator


def flood(bed, count, size=8192):
    src, dst = bed.hosts[0], bed.hosts[1]
    for _ in range(count):
        src.nic.transmit(Packet(src.ip, dst.ip, 1000, 2000, payload_len=size))
    bed.sim.run()
    return dst


def test_output_queue_serializes_bursts():
    """Back-to-back frames leave the switch spaced by serialization time."""
    bed = Testbed.cloud(seed=0)
    dst = flood(bed, 3)
    assert dst.nic.rx_frames.value == 3
    arrivals = []
    while True:
        ok, packet = dst.nic.rx_ring.try_get()
        if not ok:
            break
        arrivals.append(packet.trace)
    # all three forwarded, none dropped at the switch
    assert bed.switch.forwarded.value == 3
    assert bed.switch.dropped.value == 0


def test_sustained_overload_drops_at_switch():
    """Two line-rate senders converging on one output port overflow its
    queue once it exceeds max_port_queue_ns."""
    bed = Testbed(CLOUD_TESTBED, hosts=3, seed=1)
    bed.switch.max_port_queue_ns = 10_000.0  # very shallow for the test
    a, b, c = bed.hosts
    for _ in range(100):
        a.nic.transmit(Packet(a.ip, c.ip, 1, 2, payload_len=8192))
        b.nic.transmit(Packet(b.ip, c.ip, 1, 2, payload_len=8192))
    bed.sim.run()
    delivered = c.nic.rx_frames.value + c.nic.rx_dropped.value
    assert bed.switch.dropped.value > 0
    assert delivered + bed.switch.dropped.value == 200


def test_two_senders_share_one_output_port():
    bed = Testbed(CLOUD_TESTBED, hosts=3, seed=2)
    a, b, c = bed.hosts
    for _ in range(5):
        a.nic.transmit(Packet(a.ip, c.ip, 1, 2, payload_len=1024))
        b.nic.transmit(Packet(b.ip, c.ip, 1, 2, payload_len=1024))
    bed.sim.run()
    assert c.nic.rx_frames.value == 10


def test_switch_latency_scales_with_queue_depth():
    """The tenth frame of a burst arrives later than a lone frame."""
    lone = Testbed.cloud(seed=3)
    flood(lone, 1)
    lone_time = lone.sim.now

    burst = Testbed.cloud(seed=3)
    flood(burst, 10, size=8192)
    assert burst.sim.now > lone_time


# -- port-level overflow mechanics (no testbed, raw port objects) -------------

class CarrySink:
    """Stands in for the Link on a port's egress; records departures."""

    def __init__(self):
        self.carried = []

    def carry(self, frame, sender):
        self.carried.append(frame)


class TraceRecorder:
    """Minimal packet trace: records stamps and drop marks."""

    def __init__(self):
        self.stamps = {}
        self.drops = []

    def __setitem__(self, key, when):
        self.stamps[key] = when

    def mark_dropped(self, now, reason):
        self.drops.append((now, reason))


def make_port(queue_ns):
    sim = Simulator()
    switch = Switch(sim, CLOUD_TESTBED)
    switch.max_port_queue_ns = queue_ns
    port = switch.new_port()
    port.egress = CarrySink()
    return sim, switch, port


def traced_frame(size=8192):
    recorder = TraceRecorder()
    packet = Packet("10.0.0.1", "10.0.0.2", 1, 2, payload_len=size,
                    trace=recorder)
    return Frame(packet), recorder


def test_overflow_drop_does_not_advance_the_tx_horizon():
    """A dropped frame must not consume port bandwidth: the committed
    transmit horizon stays where the admitted frames left it, so the next
    frame is not delayed by one that never went out."""
    sim, switch, port = make_port(queue_ns=1.0)
    first, _ = traced_frame()
    port.emit(first)
    horizon = port._tx_free_at
    assert horizon > 0.0
    overflow, recorder = traced_frame()
    port.emit(overflow)  # queued-wait would exceed 1ns -> dropped
    assert switch.dropped.value == 1
    assert port._tx_free_at == horizon
    assert recorder.drops and "queue overflow" in recorder.drops[0][1]
    # the port index is named in the drop reason
    assert "port %d" % port.index in recorder.drops[0][1]
    sim.run()
    assert len(port.egress.carried) == 1


def test_admitted_frames_depart_in_fifo_order_at_line_rate():
    sim, switch, port = make_port(queue_ns=1e9)
    frames = [traced_frame()[0] for _ in range(3)]
    for f in frames:
        port.emit(f)
    sim.run()
    assert port.egress.carried == frames
    assert switch.dropped.value == 0


def make_qos_port(ceilings):
    sim = Simulator()
    switch = Switch(sim, CLOUD_TESTBED)
    port = switch.new_qos_port(ceilings, region=0)
    port.egress = CarrySink()
    return sim, switch, port


def classed_frame(cls, size=8192):
    frame, recorder = traced_frame(size)
    if cls is not None:
        frame.packet.meta = {"qos_class": cls}
    return frame, recorder


def test_qos_strict_priority_reorders_across_classes():
    """With the port busy, a later high-class frame departs before the
    earlier low-class backlog."""
    sim, switch, port = make_qos_port({0: 1e9, 1: 1e9})
    low_a, _ = classed_frame(1)
    low_b, _ = classed_frame(1)
    high, _ = classed_frame(0)
    port.emit(low_a)   # starts transmitting immediately
    port.emit(low_b)   # queued behind it
    port.emit(high)    # queued, but class 0 preempts the queue order
    sim.run()
    assert port.egress.carried == [low_a, high, low_b]


def test_qos_per_class_ceilings_and_counters():
    sim, switch, port = make_qos_port({0: 1.0, 1: 1e9})
    filler, _ = classed_frame(1)
    port.emit(filler)  # occupies the wire; class-0 wait now exceeds 1ns
    premium, recorder = classed_frame(0)
    port.emit(premium)
    assert switch.dropped.value == 1
    assert port.class_dropped == {0: 1, 1: 0}
    assert recorder.drops and "class 0" in recorder.drops[0][1]
    sim.run()
    assert port.egress.carried == [filler]


def test_qos_unclassed_frames_ride_the_lowest_class():
    sim, switch, port = make_qos_port({0: 1e9, 2: 1e9})
    plain, _ = classed_frame(None)
    assert port._class_of(plain) == 2
    stranger, _ = classed_frame(7)  # class not configured on this port
    assert port._class_of(stranger) == 2


def test_qos_port_requires_a_class_map():
    sim = Simulator()
    switch = Switch(sim, CLOUD_TESTBED)
    with pytest.raises(ValueError):
        switch.new_qos_port({})
