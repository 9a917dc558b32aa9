"""Fast-engine hop fusion must be bit-identical to the unfused paths.

The fast engine fuses these hops (DESIGN.md §6, §11):

* ``Session.consume_data(extra_ns=...)`` — IPC charge + app-touch sleep
  collapse into one :class:`TimeoutAt` wake-up;
* ``Link.carry`` into a NIC — propagation + rx-DMA collapse into one
  ``schedule_abs`` that places the frame straight into the NIC ring;
* ``Link.carry`` into a switch — propagation + switch arrival collapse
  into one ``schedule_abs`` of the output port's ``emit``;
* ready-``Get`` hand-offs and at-once ``Put`` acceptances — elided
  entirely when nothing else is runnable at the instant;
* a frame's departure from the NIC frees the TX slot it holds, instead
  of a second event at the same instant.

The legacy *engine* takes none of these shortcuts (no lane, no
``schedule_abs`` attr on the fused paths' guards), so running the same
paper workloads on both engines — on the back-to-back local testbed and
on the switched cloud testbed — and comparing final time, event counts,
and results proves the fusions preserve the observable execution exactly.
An engine observer switches every fused path off on the fast engine too.
Each path also saves an exact number of scheduler round trips, counted
here against the same run with that path alone switched off.
"""

import pytest

from repro.bench.harness import InsaneBenchApp
from repro.core import QosPolicy, Session
from repro.core.config import RuntimeConfig
from repro.core.ipc import TokenRing
from repro.core.runtime import InsaneDeployment
from repro.hw import Testbed
from repro.hw.nic import Nic
from repro.hw.profiles import PROFILES
from repro.loadgen.client import run_closed_loop
from repro.loadgen.windows import WindowPlan
from repro.obs import EngineObserver
from repro.simnet import Put, Signal, Simulator, Store, Timeout, Wait
from repro.simnet.legacy import LegacySimulator
from repro.validate.golden import ENGINE_WORKLOADS, run_workload


PROFILE_NAMES = ["local", "cloud"]


class TestFusedHopsMatchLegacyEngine:
    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    @pytest.mark.parametrize("sinks", [1, 3])
    def test_stream_workload_is_engine_invariant(self, sinks, profile):
        results = {}
        for name, engine_cls in (("fast", Simulator), ("legacy", LegacySimulator)):
            sim = engine_cls(seed=0)
            testbed = Testbed(PROFILES[profile], hosts=2, seed=0, sim=sim)
            app = InsaneBenchApp(testbed, "fast")
            meters = app.stream(60, 1024, sinks=sinks)
            results[name] = (
                sim.now,
                sim.stats()["events_executed"],
                [round(m.gbps(), 12) for m in meters],
                sim.failures,
            )
        assert results["fast"] == results["legacy"]

    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    def test_pingpong_workload_is_engine_invariant(self, profile):
        results = {}
        for name, engine_cls in (("fast", Simulator), ("legacy", LegacySimulator)):
            sim = engine_cls(seed=0)
            testbed = Testbed(PROFILES[profile], hosts=2, seed=0, sim=sim)
            app = InsaneBenchApp(testbed, "fast")
            rtts = app.pingpong(40, 64)
            results[name] = (
                sim.now,
                sim.stats()["events_executed"],
                rtts.count,
                round(rtts.mean, 9),
                sim.failures,
            )
        assert results["fast"] == results["legacy"]


def closed_loop(sim, datapath="dpdk"):
    """A short four-client closed loop pinned to ``datapath`` on ``sim``:
    each request's emit is accepted by its ring at once."""
    config = RuntimeConfig()
    config.mapping_strategy = lambda policy, available: datapath
    testbed = Testbed(PROFILES["local"], hosts=2, seed=0, sim=sim)
    deployment = InsaneDeployment(testbed, config=config)
    plan = WindowPlan(warmup_ns=50_000.0, window_ns=200_000.0, windows=2,
                      cooldown_ns=20_000.0)
    return run_closed_loop(testbed, deployment, clients=4, think_dist="fixed",
                           plan=plan, seed=0, check_law=False)


class TestDepartureAndPutFusionsMatchUnfusedRuns:
    """Both new fused paths engage in these workloads: the fast engine,
    the fast engine under an observer and the legacy engine agree."""

    @staticmethod
    def observed(monkeypatch, observer):
        if observer:
            monkeypatch.setattr(Simulator, "observer", EngineObserver())
        else:
            monkeypatch.setattr(Simulator, "observer", None)

    @pytest.mark.parametrize("name", sorted(ENGINE_WORKLOADS))
    def test_paper_workloads(self, name, monkeypatch):
        runs = []
        for engine, observer in (("fast", False), ("fast", True),
                                 ("legacy", False)):
            self.observed(monkeypatch, observer)
            record = run_workload(name, engine=engine)
            runs.append((record["outcome"],
                         record["stats"]["events_executed"]))
        assert runs[0] == runs[1] == runs[2]

    def test_closed_loop(self, monkeypatch):
        runs = []
        for engine_cls, observer in ((Simulator, False), (Simulator, True),
                                     (LegacySimulator, False)):
            self.observed(monkeypatch, observer)
            sim = engine_cls(seed=0)
            metrics = closed_loop(sim)
            runs.append((sim.now, sim.stats()["events_executed"], metrics,
                         sim.failures))
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][2]["stable"]["responses"] > 0


class IdleAcceptedPut(Put):
    """A ``Put`` the trampoline does not elide (tag 0 takes ``apply``),
    counting each one its store accepts with nothing else runnable at
    the instant: the completion is then the lane's only entry and the
    heap's head is later."""

    __slots__ = ()
    _tag = 0
    accepted_idle = 0

    def apply(self, sim, process):
        idle = not sim._lane and not self.store._putters
        self.store.add_putter(self.item, process.resume)
        heap = sim._heap
        if idle and len(sim._lane) == 1 and (
                not heap or heap[0][0] > sim.now):
            IdleAcceptedPut.accepted_idle += 1


class TestRoundTripsSaved:
    """Each path, switched off alone, costs exactly one scheduler round
    trip per engagement and moves no digest."""

    @staticmethod
    def count_slot_frames(monkeypatch, fuse):
        counted = {"frames": 0}
        transmit = Nic.transmit

        def counting_transmit(nic, packet):
            if packet.tx_buffer is not None:
                counted["frames"] += 1
            nic._fuse = nic._fuse and fuse
            return transmit(nic, packet)

        monkeypatch.setattr(Nic, "transmit", counting_transmit)
        return counted

    @pytest.mark.parametrize("name", sorted(ENGINE_WORKLOADS))
    def test_departure_release_saves_one_per_slot_holding_frame(
            self, name, monkeypatch):
        runs = {}
        for fuse in (True, False):
            counted = self.count_slot_frames(monkeypatch, fuse)
            record = run_workload(name)
            runs[fuse] = (record, counted["frames"])
        (fused, frames), (unfused, _) = runs[True], runs[False]
        assert fused["outcome"] == unfused["outcome"]
        assert frames > 0
        assert unfused["stats"]["scheduled"] - fused["stats"]["scheduled"] \
            == frames

    @pytest.mark.parametrize("name,engages", [
        ("fig5_pingpong", False),  # every emit kicks a parked thread
        ("fig8a_streaming", True),
        ("fig8b_8sink", True),
    ])
    def test_put_elision_saves_one_per_emit_accepted_idle(
            self, name, engages, monkeypatch):
        fused = run_workload(name)
        enqueue = TokenRing.enqueue_effect

        def unelided(ring, token):
            enqueue(ring, token)  # counts the emit as the ring does
            return IdleAcceptedPut(ring, token)

        monkeypatch.setattr(TokenRing, "enqueue_effect", unelided)
        monkeypatch.setattr(IdleAcceptedPut, "accepted_idle", 0)
        unfused = run_workload(name)
        idle = IdleAcceptedPut.accepted_idle
        assert fused["outcome"] == unfused["outcome"]
        assert (idle > 0) is engages
        assert unfused["stats"]["scheduled"] - fused["stats"]["scheduled"] \
            == idle


class TestPutElision:
    @staticmethod
    def run(engine_cls, kick):
        """A producer puts into a store at 10 ns while a thread is
        parked; with ``kick`` the store's ``on_item`` wakes the thread."""
        sim = engine_cls(seed=0)
        store = Store(sim, capacity=4)
        parked = Signal(sim)
        order = []
        if kick:
            store.on_item = parked.succeed

        def thread():
            yield Wait(parked)
            order.append(("thread", sim.now))

        def producer():
            yield Timeout(10.0)
            yield Put(store, "item")
            order.append(("producer", sim.now))

        sim.process(thread())
        sim.process(producer())
        sim.run()
        return order, sim.stats()

    def test_put_that_kicks_a_parked_thread_is_not_elided(self):
        order, fast = self.run(Simulator, kick=True)
        legacy_order, legacy = self.run(LegacySimulator, kick=True)
        assert order == legacy_order == [("thread", 10.0),
                                         ("producer", 10.0)]
        assert fast["scheduled"] == legacy["scheduled"]
        assert fast["events_executed"] == legacy["events_executed"]

    def test_put_accepted_with_nothing_runnable_continues_in_place(self):
        order, fast = self.run(Simulator, kick=False)
        legacy_order, legacy = self.run(LegacySimulator, kick=False)
        assert order == legacy_order == [("producer", 10.0)]
        assert fast["scheduled"] == legacy["scheduled"] - 1
        assert fast["events_executed"] == legacy["events_executed"]


class TestDepartureRelease:
    @staticmethod
    def run(engine_cls, fuse=True):
        """Emit one message and take the wire down while its frame is
        still serializing; probe the sender's pool just before and at
        the departure instant."""
        sim = engine_cls(seed=0)
        testbed = Testbed(PROFILES["local"], hosts=2, seed=0, sim=sim)
        deployment = InsaneDeployment(testbed)
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        source = tx.create_source(tx.create_stream(QosPolicy.fast(), "d"), 1)
        sink = rx.create_sink(rx.create_stream(QosPolicy.fast(), "d"), 1)
        pool = deployment.runtime(0).memory.pool
        link = testbed.links[0]
        nic = testbed.hosts[0].nic
        nic._fuse = nic._fuse and fuse
        transmit = nic.transmit
        seen = []

        def transmit_then_cut(packet):
            departure = transmit(packet)
            link.take_down()
            sim.schedule_at(departure - 1.0, lambda: seen.append(
                ("serializing", pool.in_use)))
            sim.schedule_at(departure, lambda: seen.append(
                ("departed", sim.now == departure, pool.in_use)))
            return departure

        nic.transmit = transmit_then_cut

        def producer():
            buffer = tx.get_buffer(source, 512)
            buffer.write(b"x" * 512)
            yield from tx.emit_data(source, buffer)

        sim.process(producer())
        sim.run()
        stats = sim.stats()
        return (seen, link.lost_frames.value, len(sink.ring), pool.in_use,
                sim.now, stats["events_executed"]), stats["scheduled"]

    def test_link_down_while_serializing_loses_the_frame_frees_the_slot(self):
        fused, fused_scheduled = self.run(Simulator)
        unfused, unfused_scheduled = self.run(Simulator, fuse=False)
        legacy, _ = self.run(LegacySimulator)
        assert fused == unfused == legacy
        seen, lost, delivered, in_use = fused[:4]
        assert seen == [("serializing", 1), ("departed", True, 0)]
        assert (lost, delivered, in_use) == (1, 0, 0)
        assert unfused_scheduled - fused_scheduled == 1
