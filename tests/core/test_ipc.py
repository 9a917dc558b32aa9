"""Token ring tests."""

from repro.core import QosPolicy, Session
from repro.core.ipc import Token, TokenRing
from repro.core.runtime import InsaneDeployment
from repro.hw import Testbed


def make_ring(capacity=4):
    bed = Testbed.local()
    return bed, TokenRing(bed.sim, capacity, "ring")


def make_token(slot=1):
    return Token(slot_id=slot, length=64, stream="s", channel=1)


def test_enqueue_dequeue_fifo():
    _, ring = make_ring()
    for slot in range(3):
        assert ring.try_enqueue(make_token(slot))
    assert [ring.try_get()[1].slot_id for _ in range(3)] == [0, 1, 2]
    assert ring.try_get() == (False, None)


def test_full_ring_rejects_and_counts():
    _, ring = make_ring(capacity=2)
    assert ring.try_enqueue(make_token())
    assert ring.try_enqueue(make_token())
    assert not ring.try_enqueue(make_token())
    assert ring.rejected.value == 1
    assert ring.enqueued.value == 2


def test_drain_respects_limit():
    """``drain(n)`` is ``n`` ``try_get`` calls: at most ``n`` tokens,
    oldest first, and each take admits one blocked producer, whose token
    a later take of the same drain may return."""

    def run(take):
        bed, ring = make_ring(capacity=3)
        sim = bed.sim
        admitted = []

        def producer(slot):
            yield ring.enqueue_effect(make_token(slot))
            admitted.append((slot, sim.now))

        for slot in range(6):
            sim.process(producer(slot))
        sim.run()
        assert [slot for slot, _ in admitted] == [0, 1, 2]
        taken = [token.slot_id for token in take(ring)]
        sim.run()
        left = [token.slot_id for token in ring.drain(len(ring))]
        return taken, left, admitted, sim.stats()

    drained = run(lambda ring: ring.drain(4))
    one_by_one = run(lambda ring: [ring.try_get()[1] for _ in range(4)])
    assert drained == one_by_one
    taken, left, admitted, _stats = drained
    assert taken == [0, 1, 2, 3]
    assert left == [4, 5]
    assert [slot for slot, _ in admitted] == [0, 1, 2, 3, 4, 5]


def test_blocking_enqueue_applies_backpressure():
    bed, ring = make_ring(capacity=1)
    sim = bed.sim
    order = []

    def producer():
        yield ring.enqueue_effect(make_token(1))
        order.append(("put1", sim.now))
        yield ring.enqueue_effect(make_token(2))
        order.append(("put2", sim.now))

    def consumer():
        from repro.simnet import Timeout

        yield Timeout(500)
        assert [token.slot_id for token in ring.drain(1)] == [1]
        order.append(("got", sim.now))

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert ("put2", 500) in order  # blocked until the consumer drained


def test_half_cost_reflects_profile():
    """``emit_data`` and ``consume_data`` each jitter ``ipc_half_ns``,
    half of ``insane_ipc`` at burst 1, once per ring crossing."""
    bed = Testbed.local()
    runtime = InsaneDeployment(bed).runtime(0)
    expected = bed.profile.stage("insane_ipc").cost(0, burst=1) / 2.0
    assert runtime.ipc_half_ns == expected
    session = Session(runtime, "app")
    stream = session.create_stream(QosPolicy.fast(), "h")
    source = session.create_source(stream, 1)
    sink = session.create_sink(stream, 1)
    jitter = runtime.host.jitter
    charged = []

    def recording(cost_ns):
        value = jitter(cost_ns)
        charged.append((cost_ns, value))
        return value

    runtime.host.jitter = recording

    def app():
        buffer = session.get_buffer(source, 8)
        yield from session.emit_data(source, buffer, length=8)
        yield from session.consume_data(sink)

    bed.sim.process(app())
    bed.sim.run()
    crossings = [value for cost, value in charged if cost == expected]
    assert len(crossings) == 2
    # jittered, but within a few percent
    assert all(abs(value - expected) / expected < 0.2 for value in crossings)
