"""Per-packet charge loops: a burst costs one engine event per packet.

A datapath charges a burst packet by packet (``Datapath.send_many``,
``Datapath.recv_burst`` and the kernel softirq): it draws each stage's
cost in stage order, yields one ``Timeout`` per packet and acts on the
packet when that ``Timeout`` completes; after the last packet the caller
continues in the same event.  These tests pin that contract on the shared
transmit loop, with a stub host whose every stage charge draws rng.
"""

from repro.datapaths.base import Datapath, DatapathInfo
from repro.netstack import Packet
from repro.simnet import Simulator, Timeout


class _Host:
    """Stage costs with an rng draw per charge, like Host.stage_cost."""

    name = "stub"
    profile = None
    nic = None

    def __init__(self, sim):
        self.sim = sim
        self.charges = []

    def stage_cost(self, key, size, burst=1, jitter=True):
        self.charges.append((key, burst))
        return 10.0 + self.sim.rng.random()


class _Datapath(Datapath):
    info = DatapathInfo("stub", "in-kernel", "none", False, "per-packet",
                        False)
    tx_stages = ("stage_a", "stage_b")
    tx_done_key = "stub_tx_done"

    def __init__(self, sim):
        Datapath.__init__(self, _Host(sim))
        self.sent = []

    def transmit(self, packet):
        if packet.payload_len == 999:
            raise RuntimeError("boom at packet 3")
        self.sent.append(round(self.sim.now, 9))


def _burst(sim, n=16):
    """A process that sleeps 5 ns, then sends ``n`` packets in one burst;
    returns the datapath, the packets and the list of finish instants."""
    dp = _Datapath(sim)
    packets = [Packet("a", "b", 1, 1, None, 64, {}) for _ in range(n)]
    finished = []

    def sender():
        yield Timeout(5.0)
        yield from dp.send_many(packets)
        finished.append(round(sim.now, 9))

    sim.process(sender(), name="sender")
    return dp, packets, finished


def _run_burst(sim, n=16):
    dp, packets, finished = _burst(sim, n)
    sim.run()
    assert finished == dp.sent[-1:]
    return dp.sent, sim.stats()["events_executed"], sim.rng.random()


def test_chain_charges_once_per_stage_per_packet():
    """Every (packet, stage) pair draws once, in stage order, at the
    batch's burst size; each packet's completion is later than the last
    and is its trace stamp."""
    sim = Simulator(seed=3)
    dp, packets, _finished = _burst(sim, n=4)
    sim.run()
    assert dp.host.charges == [("stage_a", 4), ("stage_b", 4)] * 4
    assert len(dp.sent) == 4
    assert dp.sent == sorted(set(dp.sent))
    assert [round(p.trace["stub_tx_done"], 9) for p in packets] == dp.sent


def test_chain_steps_count_as_engine_events():
    """One engine event per packet, and the caller continues in the last
    packet's event."""
    _sent, events, _draw = _run_burst(Simulator(seed=1), n=16)
    # the process start, its 5 ns sleep and 16 per-packet charges
    assert events == 18


def test_observer_sees_every_chain_step():
    """An engine observer sees each per-packet event, and observing does
    not change the execution."""
    sim = Simulator(seed=7)
    seen = []

    class _Observer:
        def on_event(self, now):
            seen.append(now)

    sim.observer = _Observer()
    sent, events, draw = _run_burst(sim)
    assert len(seen) == events
    assert _run_burst(Simulator(seed=7)) == (sent, events, draw)


def test_run_until_pauses_and_resumes_chain_mid_batch():
    """``run(until=)`` deadlines that fall inside a burst pause it between
    packets; driving to the end gives the unbounded run's execution."""
    reference = _run_burst(Simulator(seed=11))
    sim = Simulator(seed=11)
    dp, _packets, finished = _burst(sim)
    deadline = 5.0
    paused = 0
    while sim.peek() is not None:
        deadline += 40.0
        sim.run(until=deadline)
        paused += 0 < len(dp.sent) < 16
    assert paused >= 2
    assert finished == dp.sent[-1:]
    assert (dp.sent, sim.stats()["events_executed"],
            sim.rng.random()) == reference


def test_run_until_clock_never_overshoots_deadline():
    sim = Simulator(seed=11)
    dp, _packets, _finished = _burst(sim)
    sim.run(until=30.0)
    assert sim.now == 30.0
    assert 0 < len(dp.sent) < 16
    assert all(when <= 30.0 for when in dp.sent)


def test_chain_failure_lands_in_sim_failures():
    """A per-packet action that raises fails the process, so the failure
    lands in sim.failures, and the rest of the burst is not sent."""
    sim = Simulator(seed=0)
    dp, packets, finished = _burst(sim, n=8)
    packets[2].payload_len = 999
    sim.run()
    assert len(sim.failures) == 1
    assert "boom at packet 3" in repr(sim.failures[0])
    assert len(dp.sent) == 2
    assert finished == []
