"""The delivery contract: the token on a sink ring is what the
application consumes, and buffers never exceed an application's quota."""

import pytest

from repro.core import (
    BufferLifecycleError, PoolExhaustedError, QosPolicy, Session, SessionError,
)
from repro.core.channel import ChannelKey
from repro.core.config import RuntimeConfig
from repro.core.ipc import Token
from repro.core.runtime import InsaneDeployment
from repro.hw import Testbed
from repro.obs import LifecycleTracer
from repro.simnet import Store, Timeout
from tests.core.helpers import routed_tokens

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

    def test_network_copies_of_a_message_are_one_token(self):
        testbed = Testbed.local()
        sim = testbed.sim
        deployment = InsaneDeployment(testbed)
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        source = tx.create_source(tx.create_stream(QosPolicy.fast(), "d"), 1)
        stream = rx.create_stream(QosPolicy.fast(), "d")
        sinks = [rx.create_sink(stream, 1) for _ in range(2)]
        emit(sim, tx, source)
        emit(sim, tx, source, data=b"second")
        first, second = (list(sink.ring._items) for sink in sinks)
        assert first == second
        assert first[0] is not first[1]
        assert [bytes(token.payload()) for token in first] == \
            [PAYLOAD, b"second"]
        assert all(token.trace is None for token in first)

    def test_co_located_copies_carry_the_emit_metadata(self):
        testbed = Testbed.local()
        sim = testbed.sim
        runtime = InsaneDeployment(
            testbed, config=RuntimeConfig(trace=True)).runtime(0)
        tx = Session(runtime, "tx")
        rx = Session(runtime, "rx")
        tx_stream = tx.create_stream(QosPolicy.fast(), "d")
        source = tx.create_source(tx_stream, 1)
        stream = rx.create_stream(QosPolicy.fast(), "d")
        sinks = [rx.create_sink(stream, 1) for _ in range(2)]
        routed = routed_tokens(tx_stream.binding)
        emitted_at = []

        def producer():
            yield Timeout(1_000)
            buffer = tx.get_buffer(source, len(PAYLOAD))
            emitted_at.append(sim.now)
            yield from tx.emit_data(source, buffer)

        sim.process(producer())
        sim.run()
        first, second = (sink.ring._items[0] for sink in sinks)
        assert first is second
        assert first.trace is routed[0].trace
        assert first.trace == {"emit_ns": emitted_at[0]}
        assert emitted_at[0] >= 1_000


class TestTwoCopiesInOneApplication:
    """An application with two sinks on one channel holds two references
    to each message's slot, and closing its session returns both."""

    @staticmethod
    def deliver(rx_host):
        testbed = Testbed.local()
        sim = testbed.sim
        deployment = InsaneDeployment(testbed)
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(rx_host), "rx")
        source = tx.create_source(tx.create_stream(QosPolicy.fast(), "d"), 1)
        stream = rx.create_stream(QosPolicy.fast(), "d")
        sinks = [rx.create_sink(stream, 1) for _ in range(2)]
        emit(sim, tx, source)
        assert [len(sink.ring) for sink in sinks] == [1, 1]
        return sim, deployment.runtime(rx_host).memory.pool, rx, sinks

    @pytest.mark.parametrize("rx_host", [0, 1], ids=["co-located", "network"])
    def test_close_returns_both_unconsumed_copies(self, rx_host):
        _sim, pool, rx, _sinks = self.deliver(rx_host)
        assert pool.in_use == 1
        assert rx.close() == 2
        assert pool.in_use == 0

    @pytest.mark.parametrize("rx_host", [0, 1], ids=["co-located", "network"])
    def test_close_after_releasing_one_copy_returns_the_other(self, rx_host):
        sim, pool, rx, sinks = self.deliver(rx_host)
        rx.release_buffer(sinks[0], consume(sim, rx, sinks[0]))
        assert pool.in_use == 1
        assert rx.close() == 1
        assert pool.in_use == 0


class TestDoubleRelease:
    """An application that releases a delivery it no longer holds is
    refused before the pool is touched, so it cannot free the slot that
    another application's copy still uses."""

    @pytest.mark.parametrize("rx_host", [0, 1], ids=["co-located", "network"])
    def test_second_release_raises_and_keeps_the_other_copy(self, rx_host):
        testbed = Testbed.local()
        sim = testbed.sim
        deployment = InsaneDeployment(testbed)
        tx = Session(deployment.runtime(0), "tx")
        source = tx.create_source(tx.create_stream(QosPolicy.fast(), "d"), 1)
        a, b = (Session(deployment.runtime(rx_host), name)
                for name in ("a", "b"))
        a_sink, b_sink = (app.create_sink(app.create_stream(
            QosPolicy.fast(), "d"), 1) for app in (a, b))
        emit(sim, tx, source)
        pool = deployment.runtime(rx_host).memory.pool
        delivery = consume(sim, a, a_sink)
        a.release_buffer(a_sink, delivery)
        assert pool.in_use == 1
        with pytest.raises(BufferLifecycleError,
                           match="'a' holds no reference to slot %d"
                           % delivery.slot_id):
            a.release_buffer(a_sink, delivery)
        assert pool.in_use == 1
        b.release_buffer(b_sink, consume(sim, b, b_sink))
        assert pool.in_use == 0


class TestStaleToken:
    """A delivery token released after its slot went to a later message
    is refused: it cannot free the slot under the later message's token."""

    @pytest.mark.parametrize("rx_host", [0, 1], ids=["co-located", "network"])
    def test_stale_release_raises_and_keeps_the_later_message(self, rx_host):
        testbed = Testbed.local()
        sim = testbed.sim
        deployment = InsaneDeployment(testbed)
        tx = Session(deployment.runtime(0), "tx")
        source = tx.create_source(tx.create_stream(QosPolicy.fast(), "d"), 1)
        a = Session(deployment.runtime(rx_host), "a")
        sink = a.create_sink(a.create_stream(QosPolicy.fast(), "d"), 1)
        pool = deployment.runtime(rx_host).memory.pool
        emit(sim, tx, source)
        first = consume(sim, a, sink)
        a.release_buffer(sink, first)
        emit(sim, tx, source, b"the next message")
        second = consume(sim, a, sink)
        assert second.buffer is first.buffer  # the slot was leased again
        assert pool.in_use == 1
        with pytest.raises(BufferLifecycleError,
                           match="'a' released a stale token: slot %d"
                           % first.slot_id):
            a.release_buffer(sink, first)
        assert pool.in_use == 1
        a.release_buffer(sink, second)
        assert pool.in_use == 0


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


class TestGetBufferWaitClose:
    """A session closed while parked in ``get_buffer_wait`` takes no slot
    with it: the parked call raises and the next release goes on."""

    @staticmethod
    def stack(quota=None):
        testbed = Testbed.local()
        runtime = InsaneDeployment(testbed).runtime(0)
        sessions = []
        for name in ("a", "b", "c"):
            session = Session(runtime, name, slot_quota=quota)
            source = session.create_source(
                session.create_stream(QosPolicy.fast(), "w"), 1)
            sessions.append((session, source))
        return testbed.sim, runtime.memory.pool, sessions

    @staticmethod
    def wait(sim, session, source, results):
        def waiter():
            try:
                results.append((yield from session.get_buffer_wait(source, 64)))
            except SessionError as exc:
                results.append(exc)

        sim.process(waiter())

    def test_closed_waiter_leaks_no_slot(self):
        sim, pool, [(a, a_src), (b, b_src), _c] = self.stack()
        held = []
        while pool.free_slots:
            held.append(b.get_buffer(b_src, 64))
        got = []
        self.wait(sim, a, a_src, got)
        sim.run()
        a.close()
        sim.run()
        assert len(got) == 1 and isinstance(got[0], SessionError)
        b.release_buffer(b_src, held.pop())
        assert pool.free_slots == 1  # at once: no closed waiter holds it
        b.close()
        assert pool.in_use == 0

    def test_closed_while_a_slot_is_on_its_way(self):
        sim, pool, [(a, a_src), (b, b_src), _c] = self.stack()
        held = []
        while pool.free_slots:
            held.append(b.get_buffer(b_src, 64))
        got = []
        self.wait(sim, a, a_src, got)
        sim.run()
        b.release_buffer(b_src, held.pop())  # handed to a's parked call
        a.close()                            # before the hand-off runs
        sim.run()
        assert len(got) == 1 and isinstance(got[0], SessionError)
        assert pool.free_slots == 1
        b.close()
        assert pool.in_use == 0

    def test_live_waiter_behind_a_closed_one_gets_the_slot(self):
        sim, pool, [(a, a_src), (b, b_src), (c, c_src)] = self.stack()
        held = []
        while pool.free_slots:
            held.append(b.get_buffer(b_src, 64))
        closed, live = [], []
        self.wait(sim, a, a_src, closed)
        self.wait(sim, c, c_src, live)
        sim.run()
        a.close()
        released = held.pop()
        b.release_buffer(b_src, released)
        sim.run()
        assert isinstance(closed[0], SessionError)
        assert live == [released] and pool.free_slots == 0
        c.release_buffer(c_src, live[0])
        b.close()
        assert pool.in_use == 0

    def test_call_parked_at_its_quota_raises(self):
        sim, pool, [(a, a_src), _b, _c] = self.stack(quota=1)
        first = a.get_buffer(a_src, 64)
        got = []
        self.wait(sim, a, a_src, got)
        sim.run()
        assert got == []
        a.close()
        sim.run()
        assert len(got) == 1 and isinstance(got[0], SessionError)
        assert first.refcount == 0 and pool.in_use == 0


class TestNegativeSize:
    """A negative buffer size or emit length is refused before a slot is
    taken or handed over: a token of negative length would expose the
    bytes earlier messages left in its slot."""

    @staticmethod
    def stack(rx_host):
        testbed = Testbed.local()
        deployment = InsaneDeployment(testbed)
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(rx_host), "rx")
        source = tx.create_source(tx.create_stream(QosPolicy.fast(), "n"), 1)
        sink = rx.create_sink(rx.create_stream(QosPolicy.fast(), "n"), 1)
        return testbed.sim, deployment.runtime(0).memory.pool, tx, source, sink

    @pytest.mark.parametrize("rx_host", [0, 1], ids=["co-located", "network"])
    def test_negative_buffer_size_takes_no_slot(self, rx_host):
        sim, pool, tx, source, sink = self.stack(rx_host)
        with pytest.raises(ValueError, match="-100 is negative"):
            tx.get_buffer(source, -100)
        with pytest.raises(ValueError, match="-100 is negative"):
            next(tx.get_buffer_wait(source, -100))
        assert pool.in_use == 0
        sim.run()
        assert len(sink.ring) == 0

    @pytest.mark.parametrize("rx_host", [0, 1], ids=["co-located", "network"])
    def test_negative_emit_length_hands_nothing_over(self, rx_host):
        sim, pool, tx, source, sink = self.stack(rx_host)
        buffer = tx.get_buffer(source, 64)
        raised = []

        def producer():
            try:
                yield from tx.emit_data(source, buffer, length=-100)
            except SessionError as exc:
                raised.append(exc)

        sim.process(producer())
        sim.run()
        assert len(raised) == 1 and "-100 is negative" in str(raised[0])
        assert pool.in_use == 1 and not buffer.frozen
        assert len(sink.ring) == 0
        tx.release_buffer(source, buffer)  # still the application's
        assert pool.in_use == 0


class TestSinkCloseReleasesUnconsumed:
    """Closing a sink releases the application's reference of every
    delivery left on its ring, while its session stays open."""

    @pytest.mark.parametrize("rx_host", [0, 1], ids=["co-located", "network"])
    def test_closed_sinks_free_a_full_pool(self, rx_host):
        """Four sinks, each with a full ring of 256 unconsumed messages,
        hold every slot of the receiving host's 1,024-slot pool."""
        testbed = Testbed.local()
        sim = testbed.sim
        deployment = InsaneDeployment(testbed)
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(rx_host), "rx")
        tx_stream = tx.create_stream(QosPolicy.fast(), "c")
        rx_stream = rx.create_stream(QosPolicy.fast(), "c")
        sources = [tx.create_source(tx_stream, channel) for channel in range(4)]
        sinks = [rx.create_sink(rx_stream, channel) for channel in range(4)]
        pool = deployment.runtime(rx_host).memory.pool

        def producer():
            for _ in range(256):
                for source in sources:
                    buffer = yield from tx.get_buffer_wait(source, 64)
                    yield from tx.emit_data(source, buffer, length=64)
                    yield Timeout(2_000)  # under the receiver's NIC rate

        sim.process(producer())
        sim.run()
        assert [len(sink.ring) for sink in sinks] == [256] * 4
        assert pool.in_use == pool.slots == 1024
        rx_source = rx.create_source(rx_stream, 9)
        with pytest.raises(PoolExhaustedError):
            rx.get_buffer(rx_source, 64)
        assert [rx.close_sink(sink) for sink in sinks] == [256] * 4
        assert pool.in_use == 0
        assert [len(sink.ring) for sink in sinks] == [0] * 4
        rx.release_buffer(rx_source, rx.get_buffer(rx_source, 64))
        assert rx.close() == 0

    def test_close_skips_a_copy_already_released(self):
        """An application with two sinks that releases one copy twice
        holds no reference for the other copy: closing that sink releases
        nothing, so the slot another application holds stays live."""
        testbed = Testbed.local()
        sim = testbed.sim
        deployment = InsaneDeployment(testbed)
        tx = Session(deployment.runtime(0), "tx")
        source = tx.create_source(tx.create_stream(QosPolicy.fast(), "d"), 1)
        a, b = (Session(deployment.runtime(1), name) for name in ("a", "b"))
        a_stream = a.create_stream(QosPolicy.fast(), "d")
        a_sinks = [a.create_sink(a_stream, 1) for _ in range(2)]
        b_sink = b.create_sink(b.create_stream(QosPolicy.fast(), "d"), 1)
        emit(sim, tx, source)
        pool = deployment.runtime(1).memory.pool
        delivery = consume(sim, a, a_sinks[0])
        a.release_buffer(a_sinks[0], delivery)
        a.release_buffer(a_sinks[0], delivery)  # the other copy's reference
        assert pool.in_use == 1
        assert a_sinks[1].close() == 0
        assert pool.in_use == 1
        assert bytes(consume(sim, b, b_sink).payload()) == PAYLOAD
        assert a.close() == 0 and b.close() == 1
        assert pool.in_use == 0


class TestCallbackSinkClose:
    """Closing a callback sink, or its session, ends the session's loop
    that hands the sink its deliveries: parked on a ring that nothing
    reaches any more, it would wait for as long as the sink lives."""

    @pytest.mark.parametrize("close", ["sink", "session"])
    def test_close_ends_the_parked_loop(self, close):
        testbed = Testbed.local()
        sim = testbed.sim
        deployment = InsaneDeployment(testbed)
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        source = tx.create_source(tx.create_stream(QosPolicy.fast(), "d"), 1)
        got = []
        sink = rx.create_sink(rx.create_stream(QosPolicy.fast(), "d"), 1,
                              callback=got.append)
        for _ in range(3):
            emit(sim, tx, source)
        assert len(got) == 3
        assert len(sink.ring._getters) == 1  # parked for the next message
        if close == "sink":
            sink.close()
        else:
            rx.close()
        sim.run()
        assert len(sink.ring._getters) == 0
        assert sink.loop.finished
        emit(sim, tx, source)
        assert len(got) == sink.received.value == 3
        assert sim.failures == []
