"""A Cyclone-DDS-like decentralized MoM over UDP (paper §7.1 comparison).

Models the cost structure that separates DDS from LUNAR MoM in Fig. 9:
RTPS/CDR (de)serialization on both ends and a dedicated receiver event-loop
thread that must be woken for incoming data (the paper: "comparable to
systems that use blocking sockets in their receiver thread, although with
higher variability").  Transport is plain kernel UDP, as the paper
configures Cyclone.
"""

from collections import defaultdict

from repro.datapaths import KernelUdpDatapath
from repro.netstack import Packet
from repro.simnet import Counter, Get, Store, Timeout

DDS_PORT = 7400


class DdsDomain:
    """Shared discovery state of one DDS domain (out-of-band, like SPDP)."""

    def __init__(self):
        self.nodes = []
        self.subscriptions = defaultdict(set)  # topic -> {node}

    def register(self, node):
        self.nodes.append(node)

    def subscribers(self, topic, exclude=None):
        return [node for node in self.subscriptions.get(topic, ()) if node is not exclude]


class CycloneDdsNode:
    """One DDS participant on one host."""

    def __init__(self, host, domain, jitter_sigma=0.08):
        self.host = host
        self.sim = host.sim
        self.domain = domain
        self.socket = KernelUdpDatapath.get(host).socket(DDS_PORT, blocking=False)
        # the receiver event loop hands samples to reader queues
        self._reader_queues = defaultdict(lambda: Store(self.sim))
        self._callbacks = {}
        self.samples_received = Counter("dds.samples")
        # Cyclone shows "higher variability" (paper §7.1): extra jitter on
        # the event-loop wake-up
        self.jitter_sigma = jitter_sigma
        domain.register(self)
        self.sim.process(self._event_loop(), name=host.name + ".dds.evloop")

    # -- publish ---------------------------------------------------------------

    def publish(self, topic, size, data=None):
        """Serialize and send one sample to every subscriber (generator)."""
        if data is not None:
            size = len(data)
        yield Timeout(self.host.stage_cost("dds_serialize", size))
        for node in self.domain.subscribers(topic, exclude=self):
            packet = Packet(
                self.host.ip,
                node.host.ip,
                DDS_PORT,
                DDS_PORT,
                payload=data,
                payload_len=size if data is None else None,
                seq=next(self.sim.ids),
            )
            packet.meta = {"dds_topic": topic}
            yield from self.socket.send(packet)
        # local subscribers are delivered through the same reader queues
        if self in self.domain.subscriptions.get(topic, ()):
            local = Packet(self.host.ip, self.host.ip, DDS_PORT, DDS_PORT,
                           payload=data, payload_len=size if data is None else None,
                           seq=next(self.sim.ids))
            local.meta = {"dds_topic": topic}
            self._reader_queues[topic].try_put(local)

    def publish_burst(self, topic, size, count):
        """Send ``count`` samples back to back (generator).

        Serialization cost amortizes its fixed component across the burst,
        and the socket writes coalesce — Cyclone's write-batching path.
        """
        subscribers = self.domain.subscribers(topic, exclude=self)
        for node in subscribers:
            packets = []
            for _ in range(count):
                packet = Packet(self.host.ip, node.host.ip, DDS_PORT, DDS_PORT,
                                payload_len=size, seq=next(self.sim.ids))
                packet.meta = {"dds_topic": topic}
                packets.append(packet)
            cost = sum(
                self.host.stage_cost("dds_serialize", size, burst=count) for _ in packets
            )
            yield Timeout(cost)
            yield from self.socket.send_many(packets)

    # -- subscribe ----------------------------------------------------------------

    def subscribe(self, topic, callback):
        """Register a reader; ``callback(topic, packet)`` per sample."""
        self.domain.subscriptions[topic].add(self)
        self._callbacks[topic] = callback
        queue = self._reader_queues[topic]
        self.sim.process(self._reader_loop(topic, queue), name="dds.reader")
        return queue

    def _event_loop(self):
        """The receiver thread: socket -> per-reader queues."""
        while True:
            batch = yield from self.socket.recv_many(32)
            wake = self.host.stage_cost("dds_eventloop", 0, burst=len(batch))
            wake *= max(0.3, self.sim.rng.gauss(1.0, self.jitter_sigma))
            cost = wake * len(batch)
            for packet in batch:
                cost += self.host.stage_cost("dds_serialize", packet.payload_len, burst=len(batch))
            yield Timeout(cost)
            for packet in batch:
                topic = packet.meta.get("dds_topic")
                if topic in self._callbacks:
                    self._reader_queues[topic].try_put(packet)

    def _reader_loop(self, topic, queue):
        callback = self._callbacks[topic]
        while True:
            packet = yield Get(queue)
            self.samples_received.value += 1
            callback(topic, packet)
