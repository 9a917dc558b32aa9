"""Runtime dispatch edge cases: drops, backpressure, fan-out accounting."""

import gc
import tracemalloc

import pytest

from repro.bench.harness import InsaneBenchApp, make_testbed
from repro.core import EmitOutcome, QosPolicy, Session, SessionError
from repro.core.channel import ChannelKey
from repro.core.config import RuntimeConfig
from repro.core.runtime import INSANE_PORTS, InsaneDeployment, InsaneRuntime
from repro.hw import LOCAL_TESTBED, Testbed
from repro.netstack import Packet


def make(seed=0, hosts=2, config=None, **scalars):
    """A local testbed and deployment; ``scalars`` override the profile's
    (e.g. ``pool_slots``, ``ipc_ring_slots``)."""
    profile = LOCAL_TESTBED.replace(scalars={**LOCAL_TESTBED.scalars, **scalars})
    testbed = Testbed(profile, seed=seed, hosts=hosts)
    return testbed, InsaneDeployment(testbed, config=config)


class TestDropPaths:
    def test_packet_without_insane_header_counted_unknown(self):
        testbed, deployment = make()
        sim = testbed.sim
        rx_runtime = deployment.runtime(1)
        session = Session(rx_runtime, "rx")
        stream = session.create_stream(QosPolicy.fast(), name="x")
        session.create_sink(stream, channel=1)
        # a foreign packet lands on INSANE's DPDK port
        alien = Packet("10.0.0.1", "10.0.0.2", INSANE_PORTS["dpdk"], INSANE_PORTS["dpdk"], payload_len=64)
        testbed.hosts[0].nic.transmit(alien)
        sim.run()
        assert rx_runtime.bindings["dpdk"].unknown_drops.value == 1

    def test_no_local_sink_drop(self):
        testbed, deployment = make()
        sim = testbed.sim
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        tx_stream = tx.create_stream(QosPolicy.fast(), name="y")
        rx_stream = rx.create_stream(QosPolicy.fast(), name="y")
        source = tx.create_source(tx_stream, channel=1)
        sink = rx.create_sink(rx_stream, channel=1)

        def producer():
            buffer = tx.get_buffer(source, 4)
            yield from tx.emit_data(source, buffer, length=4)

        # close the sink while the packet is in flight
        def closer():
            from repro.simnet import Timeout

            yield Timeout(1_500)
            sink.close()

        sim.process(producer())
        sim.process(closer())
        sim.run()
        assert deployment.runtime(1).bindings["dpdk"].no_sink_drops.value == 1

    def test_receiver_pool_exhaustion_drops(self):
        testbed, deployment = make(seed=3, pool_slots=8)
        sim = testbed.sim
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        tx_stream = tx.create_stream(QosPolicy.fast(), name="z")
        rx_stream = rx.create_stream(QosPolicy.fast(), name="z")
        source = tx.create_source(tx_stream, channel=1)
        sink = rx.create_sink(rx_stream, channel=1)  # nobody consumes

        def producer():
            for _ in range(20):
                buffer = yield from tx.get_buffer_wait(source, 4)
                yield from tx.emit_data(source, buffer, length=4)

        sim.process(producer())
        sim.run()
        binding = deployment.runtime(1).bindings["dpdk"]
        delivered = len(sink.ring)
        assert binding.pool_drops.value > 0
        assert delivered + binding.pool_drops.value == 20

    def test_sink_ring_overflow_drops_and_releases(self):
        testbed, deployment = make(seed=4, ipc_ring_slots=4, pool_slots=256)
        sim = testbed.sim
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        tx_stream = tx.create_stream(QosPolicy.fast(), name="w")
        rx_stream = rx.create_stream(QosPolicy.fast(), name="w")
        source = tx.create_source(tx_stream, channel=1)
        sink = rx.create_sink(rx_stream, channel=1)  # never consumes

        def producer():
            for _ in range(20):
                buffer = yield from tx.get_buffer_wait(source, 4)
                yield from tx.emit_data(source, buffer, length=4)

        sim.process(producer())
        sim.run()
        rx_runtime = deployment.runtime(1)
        assert sink.endpoint.dropped.value > 0
        # dropped tokens released their slots: only ring-resident ones held
        assert rx_runtime.memory.pool.in_use == len(sink.ring)


class TestFanoutAccounting:
    def test_l2_penalty_applies_beyond_ring_budget(self):
        testbed, deployment = make()
        runtime = deployment.runtime(0)
        session = Session(runtime, "app")
        stream = session.create_stream(QosPolicy.fast(), name="f")
        binding = runtime.bindings["dpdk"]
        base = binding._fanout_cost(1)
        # register sinks beyond the L2 budget
        sinks = [session.create_sink(stream, channel=100 + i) for i in range(8)]
        loaded = binding._fanout_cost(1)
        assert loaded > base
        excess = runtime.sink_ring_count - binding.l2_budget
        assert loaded - base == pytest.approx(excess * binding.l2_penalty_ns)
        for sink in sinks:
            sink.close()
        assert binding._fanout_cost(1) == pytest.approx(base)

    def test_fanout_cost_grows_with_sink_count(self):
        testbed, deployment = make()
        runtime = deployment.runtime(0)
        Session(runtime, "app").create_stream(QosPolicy.fast(), name="g")
        binding = runtime.bindings["dpdk"]
        assert binding._fanout_cost(0) == 0.0
        assert binding._fanout_cost(3) > binding._fanout_cost(1)


class TestWeightedSinks:
    """A weight-N endpoint costs what N plain sinks cost, at every step."""

    KEY = ChannelKey("wt", 1)

    @staticmethod
    def twin():
        testbed, deployment = make(config=RuntimeConfig(trace=True))
        tx = Session(deployment.runtime(0), "tx")
        stream = tx.create_stream(QosPolicy.fast(), name="wt")
        source = tx.create_source(stream, channel=1)
        runtime = deployment.runtime(1)
        Session(runtime, "rx").create_stream(QosPolicy.fast(), name="wt")
        return testbed.sim, tx, source, runtime

    @staticmethod
    def dispatch_ns(sim, tx, source, ring):
        """Send one message; the instant dispatch handed it to ``ring``
        (its ``runtime_rx`` stamp), which is after the rx pass's fan-out
        charge."""

        def producer():
            buffer = tx.get_buffer(source, 64)
            yield from tx.emit_data(source, buffer, length=64)

        sim.process(producer())
        sim.run()
        ok, token = ring.try_get()
        assert ok
        return token.meta["trace"]["runtime_rx"]

    def test_weighted_endpoint_charges_like_plain_sinks(self):
        weighted, plain = self.twin(), self.twin()
        wrt, prt = weighted[3], plain[3]
        budget = wrt.bindings["dpdk"].l2_budget
        assert 4 <= budget < 10  # re-weighting crosses the L2 ring budget
        endpoint = wrt.register_sink(self.KEY, "rx", datapath="dpdk", weight=4)
        sinks = [prt.register_sink(self.KEY, "rx", datapath="dpdk")
                 for _ in range(4)]
        for weight in (4, 10):
            wrt.set_sink_weight(endpoint, weight)
            sinks += [prt.register_sink(self.KEY, "rx", datapath="dpdk")
                      for _ in range(weight - len(sinks))]
            assert wrt.sink_ring_count == prt.sink_ring_count == weight
            assert (self.dispatch_ns(*weighted[:3], endpoint.ring)
                    == self.dispatch_ns(*plain[:3], sinks[0].ring))
        wrt.unregister_sink(endpoint)
        for sink in sinks:
            prt.unregister_sink(sink)
        for runtime in (wrt, prt):
            assert runtime.sink_ring_count == 0
            assert self.KEY not in runtime._sinks
            assert not runtime.control.has_subscribers(self.KEY)

    def test_weight_below_one_rejected(self):
        _sim, _tx, _source, runtime = self.twin()
        with pytest.raises(ValueError):
            runtime.register_sink(self.KEY, "rx", datapath="dpdk", weight=0)
        endpoint = runtime.register_sink(self.KEY, "rx", datapath="dpdk")
        with pytest.raises(ValueError):
            runtime.set_sink_weight(endpoint, 0)
        assert runtime.sink_ring_count == 1


class TestControlPlane:
    def test_runtime_registration_conflicts(self):
        testbed, deployment = make()
        from repro.core.runtime import InsaneRuntime

        with pytest.raises(ValueError):
            InsaneRuntime(testbed.hosts[0], deployment.control)

    def test_subscriptions_follow_sink_lifecycle(self):
        testbed, deployment = make()
        rx = Session(deployment.runtime(1), "rx")
        stream = rx.create_stream(QosPolicy.slow(), name="subs")
        key = ChannelKey("subs", 9)
        assert deployment.control.remote_subscribers(key, "10.0.0.1") == []
        sink = rx.create_sink(stream, channel=9)
        assert deployment.control.remote_subscribers(key, "10.0.0.1") == [
            ("10.0.0.2", frozenset({"udp"}))
        ]
        # a local query excludes the subscriber's own host
        assert deployment.control.remote_subscribers(key, "10.0.0.2") == []
        sink.close()
        assert deployment.control.remote_subscribers(key, "10.0.0.1") == []

    def test_shutdown_unregisters_everything(self):
        testbed, deployment = make()
        rx = Session(deployment.runtime(1), "rx")
        stream = rx.create_stream(QosPolicy.slow(), name="down")
        rx.create_sink(stream, channel=1)
        deployment.runtime(1).shutdown()
        testbed.sim.run()
        assert deployment.control.runtimes == [deployment.runtime(0)]

    def test_shutdown_releases_every_datapath_port(self):
        """Each binding closes what it claimed: the kernel socket, the
        steered DPDK and XDP ports and the RDMA queue pair."""
        profile = LOCAL_TESTBED.replace(rdma_nic=True)
        testbed = Testbed(profile, seed=0)
        deployment = InsaneDeployment(testbed)
        names = ("udp", "xdp", "dpdk", "rdma")
        runtime = deployment.runtime(0)
        for name in names:
            runtime.ensure_binding(name)
        runtime.shutdown()
        testbed.sim.run()
        again = InsaneRuntime(testbed.hosts[0], deployment.control)
        for name in names:
            again.ensure_binding(name)
        assert sorted(again.bindings) == sorted(names)


class TestEmitOutcomeIds:
    def test_outcomes_are_per_source_unique(self):
        testbed, deployment = make()
        sim = testbed.sim
        tx = Session(deployment.runtime(0), "tx")
        stream = tx.create_stream(QosPolicy.fast(), name="ids")
        source_a = tx.create_source(stream, channel=1)
        source_b = tx.create_source(stream, channel=2)
        ids = []

        def producer():
            for source in (source_a, source_b):
                buffer = tx.get_buffer(source, 4)
                emit_id = yield from tx.emit_data(source, buffer, length=4)
                ids.append(emit_id)

        sim.process(producer())
        sim.run()
        assert len(set(ids)) == 2

    def test_ids_survive_a_freed_source(self):
        # CPython often gives a freed source's id() to the next source;
        # emit ids carry the session's source number instead, so the new
        # source's ids differ and the freed source's outcome stays put
        testbed, deployment = make()
        sim = testbed.sim
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        stream = tx.create_stream(QosPolicy.fast(), name="reuse")
        rx.create_sink(rx.create_stream(QosPolicy.fast(), name="reuse"), channel=1)
        ids = []

        def emit_once(source):
            buffer = tx.get_buffer(source, 4)
            ids.append((yield from tx.emit_data(source, buffer, length=4)))

        for _ in range(3):
            old = tx.create_source(stream, channel=1)          # subscribed
            sim.process(emit_once(old))
            sim.run()
            assert tx.check_emit_outcome(old, ids[-1]) == "sent"
            old_outcomes = old._outcomes
            old.close()
            del old
            new = tx.create_source(stream, channel=2)          # no subscriber
            sim.process(emit_once(new))
            sim.run()
            assert tx.check_emit_outcome(new, ids[-1]) == "no_subscribers"
            assert old_outcomes == bytes([EmitOutcome.SENT.as_int()])
            new.close()
            del new
        assert len(set(ids)) == len(ids) == 6

    def _emit_one(self):
        testbed, deployment = make()
        tx = Session(deployment.runtime(0), "tx")
        stream = tx.create_stream(QosPolicy.fast(), name="own")
        source = tx.create_source(stream, channel=1)
        other = tx.create_source(stream, channel=2)
        ids = []

        def producer():
            for emitter in (source, other):  # both hold an emit at index 0
                buffer = tx.get_buffer(emitter, 4)
                ids.append((yield from tx.emit_data(emitter, buffer, length=4)))

        testbed.sim.process(producer())
        testbed.sim.run()
        return tx, source, other, ids[0]

    def test_another_sources_id_raises(self):
        tx, source, other, emit_id = self._emit_one()
        assert tx.check_emit_outcome(source, emit_id) == "no_subscribers"
        with pytest.raises(SessionError):
            tx.check_emit_outcome(other, emit_id)

    def test_an_id_never_issued_raises(self):
        tx, source, _other, emit_id = self._emit_one()
        for bogus in (("nope", 1, 99), ("nope",) + emit_id[1:],
                      emit_id[:2] + (1,), emit_id[:2] + (-1,)):
            with pytest.raises(SessionError):
                tx.check_emit_outcome(source, bogus)


class TestOutcomeRetention:
    @staticmethod
    def retained_bytes(messages):
        """Bytes still traced after a fig8a-shaped stream, app alive."""
        gc.collect()
        tracemalloc.start()
        try:
            app = InsaneBenchApp(make_testbed("local", seed=0), "fast")
            app.stream(messages, 1024)
            gc.collect()
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    def test_a_stream_retains_about_one_byte_per_emit(self):
        # a runtime record per routed emit retained 133-158 B here
        per_emit = (self.retained_bytes(5000) - self.retained_bytes(1000)) / 4000
        assert per_emit < 32
