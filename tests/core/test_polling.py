"""Polling-thread pool tests (paper §5.3)."""

from repro.bench.harness import InsaneBenchApp
from repro.core import EmitOutcome, QosPolicy, Session
from repro.core.config import RuntimeConfig
import pytest

from repro.core.ipc import TokenRing
from repro.core.polling import PollingThread
from repro.core.runtime import INSANE_PORTS, DatapathBinding, InsaneDeployment
from repro.hw import Testbed
from repro.netstack import FramePolicy, Packet
from repro.simnet import Timeout
from tests.core.helpers import routed_tokens


def make(config=None, seed=0):
    testbed = Testbed.local(seed=seed)
    return testbed, InsaneDeployment(testbed, config=config)


class TestThreadMapping:
    def test_per_datapath_mapping_spawns_one_thread_per_plugin(self):
        testbed, deployment = make()
        runtime = deployment.runtime(0)
        session = Session(runtime, "app")
        session.create_stream(QosPolicy.fast(), name="a")
        session.create_stream(QosPolicy.slow(), name="b")
        assert len(runtime.bindings) == 2
        assert len(runtime.threads) == 2
        assert all(len(t.bindings) == 1 for t in runtime.threads)

    def test_shared_mapping_multiplexes_all_plugins(self):
        testbed, deployment = make(config=RuntimeConfig(thread_mapping="shared"))
        runtime = deployment.runtime(0)
        session = Session(runtime, "app")
        session.create_stream(QosPolicy.fast(), name="a")
        session.create_stream(QosPolicy.slow(), name="b")
        assert len(runtime.bindings) == 2
        assert len(runtime.threads) == 1
        assert len(runtime.threads[0].bindings) == 2

    def test_invalid_mapping_rejected(self):
        with pytest.raises(ValueError):
            RuntimeConfig(thread_mapping="bogus")

    def test_each_thread_pins_one_core(self):
        testbed, deployment = make()
        runtime = deployment.runtime(0)
        before = runtime.host.pinned_cores  # the kernel listener is pinned
        session = Session(runtime, "app")
        session.create_stream(QosPolicy.fast(), name="a")   # +1 dpdk thread
        session.create_stream(QosPolicy.slow(), name="b")   # udp already up
        assert before == 1
        assert runtime.host.pinned_cores == before + 1

    def test_stopped_thread_unpins_its_core(self):
        testbed, deployment = make()
        runtime = deployment.runtime(0)
        session = Session(runtime, "app")
        session.create_stream(QosPolicy.fast(), name="a")
        pinned = runtime.host.pinned_cores
        for thread in runtime.threads:
            thread.stop()
        testbed.sim.run()
        assert runtime.host.pinned_cores == pinned - len(runtime.threads)


class TestIdleBehaviour:
    def test_idle_thread_parks_without_spinning(self):
        """An idle runtime must not generate unbounded simulation events."""
        testbed, deployment = make()
        runtime = deployment.runtime(0)
        session = Session(runtime, "app")
        session.create_stream(QosPolicy.fast(), name="idle")
        # run with nothing to do: the event heap must drain
        executed = testbed.sim.run(until=10_000_000)
        assert executed < 100

    def test_kick_wakes_parked_thread(self):
        testbed, deployment = make()
        sim = testbed.sim
        runtime = deployment.runtime(0)
        tx = Session(runtime, "tx")
        rx = Session(deployment.runtime(1), "rx")
        tx_stream = tx.create_stream(QosPolicy.fast(), name="wake")
        rx_stream = rx.create_stream(QosPolicy.fast(), name="wake")
        source = tx.create_source(tx_stream, channel=1)
        sink = rx.create_sink(rx_stream, channel=1)
        sim.run()  # everything parks

        def late_producer():
            buffer = tx.get_buffer(source, 8)
            buffer.write(b"wake up!")
            yield from tx.emit_data(source, buffer)

        sim.process(late_producer())
        sim.run()
        assert len(sink.ring) == 1

    def test_pending_kick_is_not_lost(self):
        """A kick arriving while the thread is mid-pass must not be lost.
        The thread keeps no flag for it: such a kick arrives inside a
        pass that did work, and the thread polls every binding again
        after a round with work, so it holds by construction."""
        testbed, deployment = make()
        sim = testbed.sim
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        tx_stream = tx.create_stream(QosPolicy.fast(), name="burst")
        rx_stream = rx.create_stream(QosPolicy.fast(), name="burst")
        source = tx.create_source(tx_stream, channel=1)
        sink = rx.create_sink(rx_stream, channel=1)

        def producer():
            for index in range(100):
                buffer = yield from tx.get_buffer_wait(source, 4)
                buffer.write(b"%03d" % index + b"!")
                yield from tx.emit_data(source, buffer)

        sim.process(producer())
        sim.run()
        received = sink.received.value + len(sink.ring)
        assert received == 100


def parked(binding):
    """How many of ``binding``'s threads are parked right now."""
    return sum(thread._signal is not None for thread in binding.threads)


def late_emit(sim, session, source):
    """Emit one message from a fresh process, run until everything parks
    again and return the emit's outcome."""
    emits = []

    def producer():
        buffer = session.get_buffer(source, 8)
        emits.append((yield from session.emit_data(source, buffer, length=8)))

    sim.process(producer())
    sim.run()
    return session.check_emit_outcome(source, emits[0])


class TestWakeRule:
    """Only a parked thread arms its bindings' emit rings and receive
    queue: a store calls ``_kick`` only while a thread it would wake is
    parked, and every case that can park a thread still wakes it."""

    @staticmethod
    def two_hosts():
        testbed, deployment = make()
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        source = tx.create_source(tx.create_stream(QosPolicy.fast(), "w"), 1)
        sink = rx.create_sink(rx.create_stream(QosPolicy.fast(), "w"), 1)
        return testbed.sim, tx, source, sink

    def test_a_running_binding_kicks_nothing(self, monkeypatch):
        """In a flood, every ``_kick`` an emit or a received frame makes
        finds a thread to wake, on the sending and the receiving binding
        alike."""
        kicks = []
        kick = DatapathBinding._kick

        def recording(binding):
            kicks.append((binding.host.name, parked(binding) > 0))
            kick(binding)

        monkeypatch.setattr(DatapathBinding, "_kick", recording)
        app = InsaneBenchApp(Testbed.local(seed=0), "fast")
        app.stream(500, 1024)
        hosts = {host for host, _woke in kicks}
        assert hosts == {"host0", "host1"}
        assert all(woke for _host, woke in kicks)

    def test_an_emit_wakes_the_parked_thread(self):
        """The application's ring exists before the thread first parks,
        so only the park arms it."""
        sim, tx, source, _sink = self.two_hosts()
        binding = source.stream.binding
        ring = binding.ring_for("tx")
        assert ring.on_item is None
        sim.run()  # everything parks
        assert parked(binding) == binding.parked == 1
        assert late_emit(sim, tx, source) == EmitOutcome.SENT
        assert binding.datapath.tx_packets.value == 1

    def test_a_received_frame_wakes_the_parked_thread(self):
        sim, tx, source, sink = self.two_hosts()
        sim.run()
        binding = sink.stream.binding
        assert parked(binding) == binding.parked == 1
        late_emit(sim, tx, source)
        assert binding.rx_packets.value == 1
        assert len(sink.ring) == 1

    def test_a_ring_created_while_parked_is_armed(self):
        """A new application's emit ring is created by its first emit,
        while the binding's thread is parked."""
        sim, tx, _source, sink = self.two_hosts()
        sim.run()
        late = Session(tx.runtime, "late")
        late_source = late.create_source(
            late.create_stream(QosPolicy.fast(), "w"), 1)
        binding = late_source.stream.binding
        assert "late" not in binding.tx_rings and binding.parked == 1
        assert late_emit(sim, late, late_source) == EmitOutcome.SENT
        assert len(sink.ring) == 1

    def test_add_binding_wakes_a_parked_shared_thread(self):
        """The shared thread parks on the kernel path alone; the binding
        a fast stream adds wakes it, and it parks again on both."""
        testbed, deployment = make(
            config=RuntimeConfig(thread_mapping="shared"))
        sim = testbed.sim
        runtime = deployment.runtime(0)
        rx = Session(deployment.runtime(1), "rx")
        sink = rx.create_sink(rx.create_stream(QosPolicy.fast(), "w"), 1)
        sim.run()
        (thread,) = runtime.threads
        assert [b.name for b in thread._parked_on] == ["udp"]
        tx = Session(runtime, "tx")
        source = tx.create_source(tx.create_stream(QosPolicy.fast(), "w"), 1)
        assert parked(source.stream.binding) == 0
        sim.run()
        assert [(b.name, b.parked) for b in thread._parked_on] == \
            [("udp", 1), ("dpdk", 1)]
        assert late_emit(sim, tx, source) == EmitOutcome.SENT
        assert len(sink.ring) == 1

    def test_an_emit_wakes_one_parked_thread_while_the_other_runs(
            self, monkeypatch):
        """With two threads on the sending binding, one often parks while
        the other is mid-pass: a token put on a ring then wakes the
        parked one, and no put leaves a thread parked."""
        app = InsaneBenchApp(Testbed.local(seed=0), "fast",
                             config=RuntimeConfig(threads_per_datapath=2))
        binding = app.client_stream.binding
        assert len(binding.threads) == 2
        puts = []
        put = TokenRing.try_put

        def recording(ring, token):
            before = parked(binding)
            accepted = put(ring, token)
            puts.append((before, parked(binding)))
            return accepted

        monkeypatch.setattr(TokenRing, "try_put", recording)
        app.stream(200, 1024)
        assert (1, 0) in puts
        assert all(after == 0 for _before, after in puts)


class TestPerMessageCalls:
    def test_a_dpdk_stream_validates_no_frame_and_kicks_only_parked_threads(
            self, monkeypatch):
        """A 2,000-message DPDK flood never calls ``FramePolicy.validate``
        and runs ``PollingThread.kick`` once per park that ended."""
        app = InsaneBenchApp(Testbed.local(seed=0), "fast")
        validated, parks, kicks = [], [], []
        validate = FramePolicy.validate
        park = PollingThread._park
        kick = PollingThread.kick

        def counting_validate(policy, payload_len):
            validated.append(payload_len)
            return validate(policy, payload_len)

        def counting_park(thread):
            parks.append(thread)
            return park(thread)

        def counting_kick(thread):
            kicks.append(thread)
            kick(thread)

        monkeypatch.setattr(FramePolicy, "validate", counting_validate)
        monkeypatch.setattr(PollingThread, "_park", counting_park)
        monkeypatch.setattr(PollingThread, "kick", counting_kick)
        meter = app.stream(2000, 1024)[0]
        assert meter.messages > 0
        assert validated == []
        still_parked = sum(thread._signal is not None
                           for runtime in app.deployment.runtimes.values()
                           for thread in runtime.threads)
        assert parks and len(kicks) == len(parks) - still_parked


class TestRingOrder:
    def test_a_pass_routes_rings_in_first_lookup_order(self):
        """A binding's pass drains its emit rings in the order they were
        first looked up, not in the order their tokens arrived; ablation
        A1 rests on this order (EXPERIMENTS A1).  B looks its ring up
        first.  During a stall A emits before B, and the one pass at the
        stall's end routes B's token first."""
        testbed, deployment = make()
        sim = testbed.sim
        runtime = deployment.runtime(0)
        rx = Session(deployment.runtime(1), "rx")
        rx.create_sink(rx.create_stream(QosPolicy.fast(), name="o"), 1)
        sources = {}
        for name in ("a", "b"):
            session = Session(runtime, name)
            stream = session.create_stream(QosPolicy.fast(), name="o")
            sources[name] = (session, session.create_source(stream, 1))
        binding = stream.binding

        def emit(name, delay=0):
            session, source = sources[name]
            yield Timeout(delay)
            buffer = session.get_buffer(source, 8)
            yield from session.emit_data(source, buffer, length=8)

        routed = routed_tokens(binding)
        sim.process(emit("b"))
        sim.run()
        stall_end = sim.now + 50_000
        binding.stall(50_000)
        sim.process(emit("a"))
        sim.process(emit("b", delay=1_000))
        sim.run(until=stall_end - 1)
        assert len(routed) == 1
        assert [len(binding.tx_rings[name]) for name in "ab"] == [1, 1]
        sim.run()  # the stall's end wakes the parked thread
        a_source, b_source = sources["a"][1], sources["b"][1]
        assert [token.source for token in routed] == \
            [b_source, b_source, a_source]


class TestFaultDuringATransmitHalf:
    @pytest.mark.parametrize("fault", ["fail", "stall"])
    def test_the_receive_half_waits_for_a_healthy_binding(self, fault):
        """A binding that fails or stalls while its pass routes leaves its
        receive queue to a pass after the fault: never for a failure,
        at the stall's end for a stall."""
        testbed, deployment = make()
        sim = testbed.sim
        tx = Session(deployment.runtime(0), "tx")
        stream = tx.create_stream(QosPolicy.fast(), name="f")
        source = tx.create_source(stream, 1)
        binding = stream.binding
        route = binding._route_token
        faulted_at = []

        def route_then_fault(token):
            route(token)
            # a foreign packet, dropped as unknown once a pass drains it
            binding.rx_queue.try_put(Packet(
                "10.0.0.9", "10.0.0.1", INSANE_PORTS["dpdk"],
                INSANE_PORTS["dpdk"], payload_len=64))
            faulted_at.append(sim.now)
            if fault == "fail":
                binding.fail("injected")
            else:
                binding.stall(50_000)

        binding._route_token = route_then_fault

        def producer():
            buffer = tx.get_buffer(source, 8)
            yield from tx.emit_data(source, buffer, length=8)

        sim.process(producer())
        sim.run(until=10_000)
        assert faulted_at and faulted_at[0] + 50_000 > 10_000
        assert len(binding.rx_queue) == 1
        sim.run()
        drained = 0 if fault == "fail" else 1
        assert binding.rx_packets.value == binding.unknown_drops.value == drained
