"""The delivery contract: the token on a sink ring is what the
application consumes, and buffers never exceed an application's quota."""

import pytest

from repro.core import PoolExhaustedError, QosPolicy, Session
from repro.core.channel import ChannelKey
from repro.core.config import RuntimeConfig
from repro.core.ipc import Token
from repro.core.runtime import InsaneDeployment
from repro.hw import Testbed
from repro.obs import LifecycleTracer
from repro.simnet import Store

PAYLOAD = b"delivered as sent"


def emit(sim, session, source, data=PAYLOAD):
    """Emit ``data`` once and run the simulation until it settles."""

    def producer():
        buffer = session.get_buffer(source, len(data))
        buffer.write(data)
        yield from session.emit_data(source, buffer)

    sim.process(producer())
    sim.run()


def consume(sim, session, sink):
    """Consume one delivery and return it."""
    got = []

    def consumer():
        got.append((yield from session.consume_data(sink)))

    sim.process(consumer())
    sim.run()
    return got[0]


class TestRingTokenIsTheDelivery:
    @pytest.mark.parametrize("rx_host", [0, 1], ids=["co-located", "network"])
    def test_consume_returns_the_token_on_the_ring(self, rx_host):
        testbed = Testbed.local()
        sim = testbed.sim
        deployment = InsaneDeployment(testbed)
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(rx_host), "rx")
        source = tx.create_source(tx.create_stream(QosPolicy.fast(), "d"), 1)
        sink = rx.create_sink(rx.create_stream(QosPolicy.fast(), "d"), 1)
        emit(sim, tx, source)
        queued = list(sink.ring._items)
        assert len(queued) == 1
        delivery = consume(sim, rx, sink)
        assert delivery is queued[0]
        assert (delivery.stream, delivery.channel) == ("d", 1)
        assert delivery.length == len(PAYLOAD)
        assert bytes(delivery.payload()) == PAYLOAD
        assert delivery.payload().readonly
        rx.release_buffer(sink, delivery)
        sim.run()
        assert deployment.runtime(rx_host).memory.pool.in_use == 0

    def test_callback_sink_gets_the_ring_token(self):
        testbed = Testbed.local()
        sim = testbed.sim
        deployment = InsaneDeployment(testbed)
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        source = tx.create_source(tx.create_stream(QosPolicy.fast(), "d"), 1)
        got = []
        rx.create_sink(rx.create_stream(QosPolicy.fast(), "d"), 1,
                       callback=lambda delivery: got.append(
                           (type(delivery), bytes(delivery.payload()))))
        emit(sim, tx, source)
        assert got == [(Token, PAYLOAD)]

    def test_untraced_network_copies_share_one_read_only_meta(self):
        testbed = Testbed.local()
        sim = testbed.sim
        deployment = InsaneDeployment(testbed)
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        source = tx.create_source(tx.create_stream(QosPolicy.fast(), "d"), 1)
        stream = rx.create_stream(QosPolicy.fast(), "d")
        sinks = [rx.create_sink(stream, 1) for _ in range(2)]
        emit(sim, tx, source)
        emit(sim, tx, source)
        metas = [token.meta for sink in sinks for token in sink.ring._items]
        assert len(metas) == 4 and all(meta is metas[0] for meta in metas)
        assert metas[0].get("trace") is None
        with pytest.raises(TypeError):
            metas[0]["x"] = 1

    def test_co_located_copies_carry_the_emit_metadata(self):
        testbed = Testbed.local()
        sim = testbed.sim
        runtime = InsaneDeployment(testbed).runtime(0)
        tx = Session(runtime, "tx")
        rx = Session(runtime, "rx")
        source = tx.create_source(tx.create_stream(QosPolicy.fast(), "d"), 1)
        stream = rx.create_stream(QosPolicy.fast(), "d")
        sinks = [rx.create_sink(stream, 1) for _ in range(2)]
        emit(sim, tx, source)
        first, second = (sink.ring._items[0] for sink in sinks)
        assert first is not second
        assert first.meta is second.meta
        assert first.meta["app"] == "tx"


class TestTracedSinkRingFull:
    def test_co_located_drop_annotates_the_emit_record(self):
        """A co-located copy refused by a full sink ring is counted,
        released and annotated on the emit's lifecycle record, like a
        network copy on its packet's record."""
        testbed = Testbed.local()
        sim = testbed.sim
        tracer = LifecycleTracer()
        runtime = InsaneDeployment(
            testbed, config=RuntimeConfig(tracer=tracer)).runtime(0)
        tx = Session(runtime, "tx")
        rx = Session(runtime, "rx")
        source = tx.create_source(tx.create_stream(QosPolicy.fast(), "d"), 1)
        endpoint = runtime.register_sink(ChannelKey("d", 1), "rx",
                                         datapath="dpdk",
                                         ring=Store(sim, capacity=1))
        emit(sim, tx, source)
        emit(sim, tx, source)
        assert len(endpoint.ring) == 1
        assert endpoint.dropped.value == 1
        assert runtime.memory.pool.in_use == 1  # the dropped lend returned
        kept, dropped = tracer.roots
        assert not [a for a in kept.annotations if a[1] == "drop"]
        assert [(kind, detail) for _ns, kind, detail in dropped.annotations] \
            == [("drop", "sink ring full: rx")]


class TestGetBufferWaitQuota:
    @staticmethod
    def stack(quota):
        testbed = Testbed.local()
        runtime = InsaneDeployment(testbed).runtime(0)
        session = Session(runtime, "app", slot_quota=quota)
        source = session.create_source(
            session.create_stream(QosPolicy.fast(), "q"), 1)
        return testbed.sim, runtime, session, source

    def test_blocks_at_the_quota_until_a_slot_is_released(self):
        sim, runtime, session, source = self.stack(quota=2)
        got = []

        def greedy():
            for _ in range(4):
                got.append((yield from session.get_buffer_wait(source, 64)))

        sim.process(greedy())
        sim.run()
        assert len(got) == 2 and runtime.memory.pool.in_use == 2
        # parked at the quota without taking (and returning) a pool slot
        assert runtime.memory.pool.allocations.value == 2
        with pytest.raises(PoolExhaustedError):
            session.get_buffer(source, 64)
        for released, expected in ((got[0], 3), (got[1], 4)):
            session.release_buffer(source, released)
            sim.run()
            assert len(got) == expected
            assert runtime.memory.pool.in_use == 2

    def test_no_buffer_past_the_quota_on_a_pool_wake_up(self):
        """Waiting on an empty pool, the application is lent slots up to
        its quota; the slot the pool then frees is not handed to it."""
        sim, runtime, session, source = self.stack(quota=2)
        memory = runtime.memory
        memory.attach("hog")
        held = [memory.alloc_for("app")]
        hogged = []
        while memory.pool.free_slots:
            hogged.append(memory.alloc_for("hog"))
        got = []

        def waiter():
            got.append((yield from session.get_buffer_wait(source, 64)))

        sim.process(waiter())
        sim.run()
        assert got == []
        lent = hogged.pop()
        memory.transfer_ownership("hog", lent)
        memory.lend_to("app", lent)      # a delivery: app now at its quota
        memory.release_for("hog", hogged.pop())
        sim.run()
        assert got == []
        assert memory.pool.free_slots == 1
        session.release_buffer(source, lent)
        sim.run()
        assert len(got) == 1
        assert memory.pool.free_slots == 1
        assert memory.pool.in_use == len(hogged) + len(held) + 1

    def test_without_a_quota_waits_only_for_the_pool(self):
        sim, runtime, session, source = self.stack(quota=None)
        memory = runtime.memory
        held = []
        while memory.pool.free_slots:
            held.append(session.get_buffer(source, 64))
        got = []

        def waiter():
            got.append((yield from session.get_buffer_wait(source, 64)))

        sim.process(waiter())
        sim.run()
        assert got == []
        session.release_buffer(source, held.pop())
        sim.run()
        assert len(got) == 1 and memory.pool.free_slots == 0
