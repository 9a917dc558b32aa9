"""End-to-end integration tests of the INSANE middleware, including the
Fig. 5/7 latency calibration of INSANE fast and INSANE slow."""

import pytest

from repro.core import QosPolicy, Session
from repro.core.runtime import InsaneDeployment
from repro.hw import LOCAL_TESTBED, Testbed


def make_deployment(profile_name="local", seed=0, hosts=2, config=None):
    bed = Testbed.local(seed=seed, hosts=hosts) if profile_name == "local" else Testbed.cloud(seed=seed, hosts=hosts)
    return bed, InsaneDeployment(bed, config=config)


def insane_pingpong(profile_name, policy, rounds, size, seed=0):
    """Ping-pong between two INSANE sessions on different hosts."""
    bed, deployment = make_deployment(profile_name, seed=seed)
    sim = bed.sim
    client = Session(deployment.runtime(0), "client")
    server = Session(deployment.runtime(1), "server")
    c_stream = client.create_stream(policy, name="bench")
    s_stream = server.create_stream(policy, name="bench")
    c_source = client.create_source(c_stream, channel=1)
    c_sink = client.create_sink(c_stream, channel=2)
    s_sink = server.create_sink(s_stream, channel=1)
    s_source = server.create_source(s_stream, channel=2)
    rtts = []

    def client_proc():
        for _ in range(rounds):
            start = sim.now
            buffer = client.get_buffer(c_source, size)
            yield from client.emit_data(c_source, buffer, length=size)
            delivery = yield from client.consume_data(c_sink)
            client.release_buffer(c_sink, delivery)
            rtts.append(sim.now - start)

    def server_proc():
        while True:
            delivery = yield from server.consume_data(s_sink)
            server.release_buffer(s_sink, delivery)
            buffer = server.get_buffer(s_source, size)
            yield from server.emit_data(s_source, buffer, length=size)

    sim.process(server_proc(), name="server")
    sim.process(client_proc(), name="client")
    sim.run()
    assert len(rtts) == rounds
    return rtts


def mean(values):
    return sum(values) / len(values)


class TestDataDelivery:
    def test_payload_integrity_cross_host_fast(self):
        bed, deployment = make_deployment(seed=5)
        sim = bed.sim
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        tx_stream = tx.create_stream(QosPolicy.fast(), name="data")
        rx_stream = rx.create_stream(QosPolicy.fast(), name="data")
        source = tx.create_source(tx_stream, channel=7)
        sink = rx.create_sink(rx_stream, channel=7)
        received = []

        def producer():
            buffer = tx.get_buffer(source, 32)
            buffer.write(b"the quick brown fox jumps over")
            yield from tx.emit_data(source, buffer)

        def consumer():
            delivery = yield from rx.consume_data(sink)
            received.append(bytes(delivery.payload()))
            rx.release_buffer(sink, delivery)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert received == [b"the quick brown fox jumps over"]
        assert tx_stream.datapath == "dpdk"

    def test_payload_integrity_cross_host_slow(self):
        bed, deployment = make_deployment(seed=6)
        sim = bed.sim
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        tx_stream = tx.create_stream(QosPolicy.slow(), name="data")
        rx_stream = rx.create_stream(QosPolicy.slow(), name="data")
        source = tx.create_source(tx_stream, channel=7)
        sink = rx.create_sink(rx_stream, channel=7)
        received = []

        def producer():
            buffer = tx.get_buffer(source, 5)
            buffer.write(b"hello")
            yield from tx.emit_data(source, buffer)

        def consumer():
            delivery = yield from rx.consume_data(sink)
            received.append(bytes(delivery.payload()))
            rx.release_buffer(sink, delivery)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert received == [b"hello"]
        assert tx_stream.datapath == "udp"

    def test_colocated_delivery_uses_shared_memory_not_nic(self):
        bed, deployment = make_deployment(seed=7)
        sim = bed.sim
        session = Session(deployment.runtime(0), "both")
        stream = session.create_stream(QosPolicy.fast(), name="local")
        source = session.create_source(stream, channel=3)
        sink = session.create_sink(stream, channel=3)
        received = []

        def producer():
            buffer = session.get_buffer(source, 4)
            buffer.write(b"shmx")
            yield from session.emit_data(source, buffer)

        def consumer():
            delivery = yield from session.consume_data(sink)
            received.append(bytes(delivery.payload()))
            session.release_buffer(sink, delivery)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert received == [b"shmx"]
        assert bed.hosts[0].nic.tx_frames.value == 0  # never touched the wire

    def test_channel_isolation(self):
        """Sinks only receive data for their own channel id."""
        bed, deployment = make_deployment(seed=8)
        sim = bed.sim
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        tx_stream = tx.create_stream(QosPolicy.slow(), name="iso")
        rx_stream = rx.create_stream(QosPolicy.slow(), name="iso")
        source = tx.create_source(tx_stream, channel=1)
        sink_same = rx.create_sink(rx_stream, channel=1)
        sink_other = rx.create_sink(rx_stream, channel=2)

        def producer():
            buffer = tx.get_buffer(source, 3)
            buffer.write(b"abc")
            yield from tx.emit_data(source, buffer)

        sim.process(producer())
        sim.run()
        assert len(sink_same.ring) == 1
        assert len(sink_other.ring) == 0

    def test_stream_isolation(self):
        """Same channel id on different streams does not rendezvous."""
        bed, deployment = make_deployment(seed=9)
        sim = bed.sim
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        tx_stream = tx.create_stream(QosPolicy.slow(), name="stream-A")
        rx_stream = rx.create_stream(QosPolicy.slow(), name="stream-B")
        source = tx.create_source(tx_stream, channel=1)
        sink = rx.create_sink(rx_stream, channel=1)

        def producer():
            buffer = tx.get_buffer(source, 3)
            buffer.write(b"abc")
            yield from tx.emit_data(source, buffer)

        sim.process(producer())
        sim.run()
        assert len(sink.ring) == 0

    def test_multi_sink_fanout_and_refcounting(self):
        bed, deployment = make_deployment(seed=10)
        sim = bed.sim
        tx = Session(deployment.runtime(0), "tx")
        rx_runtime = deployment.runtime(1)
        sinks = []
        sessions = []
        for index in range(3):
            session = Session(rx_runtime, "sink%d" % index)
            stream = session.create_stream(QosPolicy.fast(), name="fan")
            sinks.append(session.create_sink(stream, channel=9))
            sessions.append(session)
        tx_stream = tx.create_stream(QosPolicy.fast(), name="fan")
        source = tx.create_source(tx_stream, channel=9)
        payloads = []

        def producer():
            buffer = tx.get_buffer(source, 6)
            buffer.write(b"fanout")
            yield from tx.emit_data(source, buffer)

        def consumer(session, sink):
            delivery = yield from session.consume_data(sink)
            payloads.append(bytes(delivery.payload()))
            session.release_buffer(sink, delivery)

        sim.process(producer())
        for session, sink in zip(sessions, sinks):
            sim.process(consumer(session, sink))
        sim.run()
        assert payloads == [b"fanout"] * 3
        # every slot recycled: one shared slot, released by all three sinks
        assert rx_runtime.memory.pool.in_use == 0
        assert deployment.runtime(0).memory.pool.in_use == 0

    def test_callback_sink_delivery(self):
        bed, deployment = make_deployment(seed=11)
        sim = bed.sim
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        tx_stream = tx.create_stream(QosPolicy.fast(), name="cb")
        rx_stream = rx.create_stream(QosPolicy.fast(), name="cb")
        source = tx.create_source(tx_stream, channel=1)
        got = []
        rx.create_sink(rx_stream, channel=1, callback=lambda d: got.append(bytes(d.payload())))

        def producer():
            for index in range(3):
                buffer = tx.get_buffer(source, 1)
                buffer.write(bytes([index]))
                yield from tx.emit_data(source, buffer)

        sim.process(producer())
        sim.run()
        assert got == [b"\x00", b"\x01", b"\x02"]
        assert rx.runtime.memory.pool.in_use == 0  # callback auto-releases


class TestEmitSemantics:
    def test_emit_outcome_lifecycle(self):
        bed, deployment = make_deployment(seed=12)
        sim = bed.sim
        tx = Session(deployment.runtime(0), "tx")
        rx = Session(deployment.runtime(1), "rx")
        tx_stream = tx.create_stream(QosPolicy.fast(), name="oc")
        rx_stream = rx.create_stream(QosPolicy.fast(), name="oc")
        source = tx.create_source(tx_stream, channel=1)
        rx.create_sink(rx_stream, channel=1)
        outcomes = []

        def producer():
            buffer = tx.get_buffer(source, 4)
            emit_id = yield from tx.emit_data(source, buffer, length=4)
            outcomes.append(tx.check_emit_outcome(source, emit_id))  # not yet routed
            from repro.simnet import Timeout

            yield Timeout(50_000)
            outcomes.append(tx.check_emit_outcome(source, emit_id))

        sim.process(producer())
        sim.run()
        assert outcomes == ["pending", "sent"]

    def test_emit_without_subscribers_releases_buffer(self):
        bed, deployment = make_deployment(seed=13)
        sim = bed.sim
        tx = Session(deployment.runtime(0), "tx")
        stream = tx.create_stream(QosPolicy.fast(), name="void")
        source = tx.create_source(stream, channel=1)
        outcomes = []

        def producer():
            buffer = tx.get_buffer(source, 4)
            emit_id = yield from tx.emit_data(source, buffer, length=4)
            from repro.simnet import Timeout

            yield Timeout(10_000)
            outcomes.append(tx.check_emit_outcome(source, emit_id))

        sim.process(producer())
        sim.run()
        assert outcomes == ["no_subscribers"]
        assert deployment.runtime(0).memory.pool.in_use == 0

    def test_write_after_emit_is_rejected(self):
        bed, deployment = make_deployment(seed=14)
        sim = bed.sim
        tx = Session(deployment.runtime(0), "tx")
        stream = tx.create_stream(QosPolicy.fast(), name="frozen")
        source = tx.create_source(stream, channel=1)
        errors = []

        def producer():
            buffer = tx.get_buffer(source, 4)
            buffer.write(b"ok!!")
            yield from tx.emit_data(source, buffer)
            try:
                buffer.write(b"no!!")
            except Exception as exc:
                errors.append(exc)

        sim.process(producer())
        sim.run()
        assert len(errors) == 1

    def test_oversized_get_buffer_rejected(self):
        bed, deployment = make_deployment(seed=15)
        tx = Session(deployment.runtime(0), "tx")
        stream = tx.create_stream(QosPolicy.fast(), name="big")
        source = tx.create_source(stream, channel=1)
        with pytest.raises(ValueError):
            tx.get_buffer(source, 9_500)


class TestQosMappingInRuntime:
    def test_fast_falls_back_to_udp_with_warning_when_no_acceleration(self):
        profile = LOCAL_TESTBED.replace(dpdk_capable=False, xdp_capable=False)
        bed = Testbed(profile, seed=16)
        deployment = InsaneDeployment(bed)
        session = Session(deployment.runtime(0), "app")
        stream = session.create_stream(QosPolicy.fast(), name="fb")
        assert stream.datapath == "udp"
        assert stream.decision.fallback
        assert deployment.runtime(0).warnings

    def test_rdma_selected_on_rdma_hosts(self):
        profile = LOCAL_TESTBED.replace(rdma_nic=True)
        bed = Testbed(profile, seed=17)
        deployment = InsaneDeployment(bed)
        session = Session(deployment.runtime(0), "app")
        stream = session.create_stream(QosPolicy.fast(), name="rdma")
        assert stream.datapath == "rdma"

    def test_custom_mapping_strategy(self):
        from repro.core.config import RuntimeConfig

        config = RuntimeConfig(mapping_strategy=lambda policy, available: "xdp")
        bed, deployment = make_deployment(seed=18, config=config)
        session = Session(deployment.runtime(0), "app")
        stream = session.create_stream(QosPolicy.fast(), name="custom")
        assert stream.datapath == "xdp"

    def test_datapath_instantiated_at_most_once(self):
        bed, deployment = make_deployment(seed=19)
        runtime = deployment.runtime(0)
        a = Session(runtime, "a")
        b = Session(runtime, "b")
        stream_a = a.create_stream(QosPolicy.fast(), name="s1")
        stream_b = b.create_stream(QosPolicy.fast(), name="s2")
        assert stream_a.binding is stream_b.binding
        # exactly one dpdk binding, plus the always-on kernel listener
        assert set(runtime.bindings) == {"udp", "dpdk"}


class TestSessionLifecycle:
    def test_close_reclaims_leaked_buffers(self):
        bed, deployment = make_deployment(seed=20)
        runtime = deployment.runtime(0)
        session = Session(runtime, "leaky")
        stream = session.create_stream(QosPolicy.fast(), name="leak")
        source = session.create_source(stream, channel=1)
        for _ in range(4):
            session.get_buffer(source, 8)
        assert runtime.memory.pool.in_use == 4
        leaked = session.close()
        assert leaked == 4
        assert runtime.memory.pool.in_use == 0

    def test_closed_session_rejects_operations(self):
        from repro.core.errors import SessionError

        bed, deployment = make_deployment(seed=21)
        session = Session(deployment.runtime(0), "gone")
        stream = session.create_stream(QosPolicy.slow(), name="s")
        source = session.create_source(stream, channel=1)
        session.close()
        with pytest.raises(SessionError):
            session.create_stream(QosPolicy.slow(), name="t")
        with pytest.raises(SessionError):
            session.get_buffer(source, 8)

    def test_sink_close_unsubscribes(self):
        bed, deployment = make_deployment(seed=22)
        rx = Session(deployment.runtime(1), "rx")
        stream = rx.create_stream(QosPolicy.slow(), name="unsub")
        sink = rx.create_sink(stream, channel=5)
        from repro.core.channel import ChannelKey

        key = ChannelKey("unsub", 5)
        assert deployment.control.has_subscribers(key)
        sink.close()
        assert not deployment.control.has_subscribers(key)


class TestLatencyCalibration:
    """INSANE fast/slow RTT must land on the paper's Fig. 7 values (±5 %)."""

    def test_insane_fast_local(self):
        rtts = insane_pingpong("local", QosPolicy.fast(), rounds=300, size=64, seed=30)
        assert mean(rtts) == pytest.approx(4_950, rel=0.05)

    def test_insane_slow_local(self):
        rtts = insane_pingpong("local", QosPolicy.slow(), rounds=300, size=64, seed=31)
        assert mean(rtts) == pytest.approx(13_660, rel=0.05)

    def test_insane_fast_cloud(self):
        rtts = insane_pingpong("cloud", QosPolicy.fast(), rounds=300, size=64, seed=32)
        assert mean(rtts) == pytest.approx(10_430, rel=0.05)

    def test_insane_slow_cloud(self):
        rtts = insane_pingpong("cloud", QosPolicy.slow(), rounds=300, size=64, seed=33)
        assert mean(rtts) == pytest.approx(23_270, rel=0.05)

    def test_rtt_stable_across_payload_sizes(self):
        small = mean(insane_pingpong("local", QosPolicy.fast(), 150, 64, seed=34))
        large = mean(insane_pingpong("local", QosPolicy.fast(), 150, 1024, seed=35))
        assert (large - small) / small < 0.15
