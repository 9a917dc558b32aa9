"""Drivers for the MoM comparison (paper Fig. 9).

Four systems: LUNAR MoM fast/slow (over INSANE), Cyclone-DDS-like, and
ZeroMQ-like, all running the same ping-pong and throughput workloads.
"""

from repro.apps.lunar_mom import LunarMom
from repro.baselines.dds import CycloneDdsNode, DdsDomain
from repro.baselines.zeromq import ZmqContext, ZmqNode
from repro.bench.harness import make_testbed
from repro.core.runtime import InsaneDeployment
from repro.simnet import Get, RateMeter, Store, Tally

MOM_SYSTEMS = ("lunar_fast", "lunar_slow", "cyclone_dds", "zeromq")


def _make_mom_pair(system, testbed):
    """Two MoM participants (host0, host1) plus per-system publish/subscribe
    closures with a uniform interface."""
    if system in ("lunar_fast", "lunar_slow"):
        mode = system.split("_")[1]
        deployment = InsaneDeployment(testbed)
        node_a = LunarMom(deployment.runtime(0), mode)
        node_b = LunarMom(deployment.runtime(1), mode)

        def publish(node, topic, size):
            yield from node.publish(topic, size=size)

        def publish_burst(node, topic, size, count):
            for _ in range(count):
                yield from node.publish(topic, size=size)

        def subscribe(node, topic, on_message):
            node.subscribe(topic, lambda _topic, payload: on_message(len(payload)))

    elif system == "cyclone_dds":
        domain = DdsDomain()
        node_a = CycloneDdsNode(testbed.hosts[0], domain)
        node_b = CycloneDdsNode(testbed.hosts[1], domain)

        def publish(node, topic, size):
            yield from node.publish(topic, size)

        def publish_burst(node, topic, size, count):
            yield from node.publish_burst(topic, size, count)

        def subscribe(node, topic, on_message):
            node.subscribe(topic, lambda _topic, packet: on_message(packet.payload_len))

    elif system == "zeromq":
        context = ZmqContext()
        node_a = ZmqNode(testbed.hosts[0], context)
        node_b = ZmqNode(testbed.hosts[1], context)

        def publish(node, topic, size):
            yield from node.radio_send(topic, size)

        def publish_burst(node, topic, size, count):
            for _ in range(count):
                yield from node.radio_send(topic, size)

        def subscribe(node, topic, on_message):
            node.dish_join(topic, lambda _group, packet: on_message(packet.payload_len))

    else:
        raise ValueError("unknown MoM system %r (choose from %s)" % (system, MOM_SYSTEMS))

    return node_a, node_b, publish, publish_burst, subscribe


def mom_pingpong(system, rounds=1000, size=64, profile="local", seed=0):
    """One Fig. 9a data point; returns a Tally of RTTs in ns."""
    testbed = make_testbed(profile, seed=seed)
    sim = testbed.sim
    node_a, node_b, publish, _publish_burst, subscribe = _make_mom_pair(system, testbed)
    rtts = Tally("%s_rtt" % system)
    pongs = Store(sim)
    pings = Store(sim)
    subscribe(node_a, "pong", lambda _size: pongs.try_put(1))
    subscribe(node_b, "ping", lambda _size: pings.try_put(1))

    def requester():
        for _ in range(rounds):
            start = sim.now
            yield from publish(node_a, "ping", size)
            yield Get(pongs)
            rtts.record(sim.now - start)

    def responder():
        while True:
            yield Get(pings)
            yield from publish(node_b, "pong", size)

    sim.process(responder(), name=system + ".responder")
    sim.process(requester(), name=system + ".requester")
    sim.run()
    return rtts


def mom_throughput(system, messages=20000, size=1024, profile="local", seed=0):
    """One Fig. 9b data point; returns subscriber goodput in Gbps."""
    testbed = make_testbed(profile, seed=seed)
    sim = testbed.sim
    node_a, node_b, _publish, publish_burst, subscribe = _make_mom_pair(system, testbed)
    meter = RateMeter(system)
    subscribe(node_b, "camera", lambda length: meter.record(sim.now, size))

    def publisher():
        remaining = messages
        while remaining:
            count = min(32, remaining)
            yield from publish_burst(node_a, "camera", size, count)
            remaining -= count

    sim.process(publisher(), name=system + ".publisher")
    sim.run()
    return meter.gbps()
