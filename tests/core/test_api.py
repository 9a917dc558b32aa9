"""The Fig. 2 primitives, each called on :class:`Session` by its paper name."""

from repro.core.qos import QosPolicy
from repro.core.runtime import InsaneDeployment
from repro.core.session import Session
from repro.hw import Testbed


def test_full_fig2_vocabulary_round_trip():
    """Exercise every Fig. 2 primitive by name, end to end."""
    testbed = Testbed.local(seed=21)
    sim = testbed.sim
    deployment = InsaneDeployment(testbed)

    tx_session = Session(deployment.runtime(0), "fig2-tx")
    rx_session = Session(deployment.runtime(1), "fig2-rx")
    tx_stream = tx_session.create_stream(QosPolicy.fast(), name="fig2")
    rx_stream = rx_session.create_stream(QosPolicy.fast(), name="fig2")
    source = tx_session.create_source(tx_stream, channel=4)
    sink = rx_session.create_sink(rx_stream, channel=4)
    outcome = {}
    received = []

    def producer():
        buffer = tx_session.get_buffer(source, 16)
        buffer.write(b"fig2 round trip!")
        emit_id = yield from tx_session.emit_data(source, buffer)
        from repro.simnet import Timeout

        yield Timeout(20_000)
        outcome["status"] = tx_session.check_emit_outcome(source, emit_id)

    def consumer():
        delivery = yield from rx_session.consume_data(sink)
        received.append(bytes(delivery.payload()))
        assert not rx_session.data_available(sink)
        rx_session.release_buffer(sink, delivery)

    sim.process(producer())
    sim.process(consumer())
    sim.run()

    assert received == [b"fig2 round trip!"]
    assert outcome["status"] == "sent"

    tx_session.close_source(source)
    rx_session.close_sink(sink)
    tx_session.close_stream(tx_stream)
    rx_session.close_stream(rx_stream)
    assert tx_session.close() == 0
    assert rx_session.close() == 0


def test_callback_sink_via_api():
    testbed = Testbed.local(seed=22)
    sim = testbed.sim
    deployment = InsaneDeployment(testbed)
    tx_session = Session(deployment.runtime(0))
    rx_session = Session(deployment.runtime(1))
    tx_stream = tx_session.create_stream(QosPolicy.slow(), name="cbapi")
    rx_stream = rx_session.create_stream(QosPolicy.slow(), name="cbapi")
    source = tx_session.create_source(tx_stream, channel=1)
    got = []
    rx_session.create_sink(rx_stream, channel=1,
                           callback=lambda d: got.append(d.length))

    def producer():
        buffer = tx_session.get_buffer(source, 32)
        yield from tx_session.emit_data(source, buffer, length=32)

    sim.process(producer())
    sim.run()
    assert got == [32]


def test_nonblocking_consume_returns_none():
    testbed = Testbed.local(seed=23)
    sim = testbed.sim
    deployment = InsaneDeployment(testbed)
    session = Session(deployment.runtime(0))
    stream = session.create_stream(QosPolicy.slow(), name="nb")
    sink = session.create_sink(stream, channel=1)
    results = []

    def poller():
        value = yield from session.consume_data(sink, blocking=False)
        results.append(value)

    sim.process(poller())
    sim.run()
    assert results == [None]
