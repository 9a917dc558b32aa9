"""A ZeroMQ-like MoM over UDP (paper §7.1 comparison).

ZeroMQ's UDP (Radio/Dish) path funnels every message through internal
pipes between the application thread and a shared I/O thread; the paper
measures this adding ~20 us over Cyclone DDS and excludes it from the
throughput plot for instability.  We model the pipeline cost on the
receive side and a smaller enqueue cost on send, with high variance.
"""

from collections import defaultdict

from repro.datapaths import KernelUdpDatapath
from repro.netstack import Packet
from repro.simnet import Counter, Get, Store, Timeout

ZMQ_PORT = 7500


class ZmqContext:
    """Shared endpoint registry (stands in for connect/bind addressing)."""

    def __init__(self):
        self.dishes = defaultdict(set)  # group -> {node}


class ZmqNode:
    """One Radio/Dish participant on one host."""

    def __init__(self, host, context, jitter_sigma=0.25):
        self.host = host
        self.sim = host.sim
        self.context = context
        self.socket = KernelUdpDatapath.get(host).socket(ZMQ_PORT, blocking=False)
        self._dish_queues = defaultdict(lambda: Store(self.sim))
        self._callbacks = {}
        self.received = Counter("zmq.received")
        # the paper observes unstable performance; model with wide jitter
        self.jitter_sigma = jitter_sigma
        self.sim.process(self._io_thread(), name=host.name + ".zmq.io")

    def radio_send(self, group, size, data=None):
        """Send one message to every dish joined to ``group`` (generator)."""
        # enqueue onto the application->io pipe (small, sender side)
        yield Timeout(self.host.jitter(400.0))
        for node in self.context.dishes.get(group, ()):
            if node is self:
                continue
            packet = Packet(
                self.host.ip,
                node.host.ip,
                ZMQ_PORT,
                ZMQ_PORT,
                payload=data,
                payload_len=size if data is None else None,
                seq=next(self.sim.ids),
            )
            packet.meta = {"zmq_group": group}
            yield from self.socket.send(packet)

    def dish_join(self, group, callback):
        """Join a group; ``callback(group, packet)`` per message."""
        self.context.dishes[group].add(self)
        self._callbacks[group] = callback
        self.sim.process(self._dish_loop(group), name="zmq.dish")

    def _io_thread(self):
        while True:
            batch = yield from self.socket.recv_many(32)
            cost = 0.0
            for packet in batch:
                pipeline = self.host.stage_cost("zmq_pipeline", packet.payload_len, burst=len(batch))
                pipeline *= max(0.2, self.sim.rng.gauss(1.0, self.jitter_sigma))
                cost += pipeline
            yield Timeout(cost)
            for packet in batch:
                group = packet.meta.get("zmq_group")
                if group in self._callbacks:
                    self._dish_queues[group].try_put(packet)

    def _dish_loop(self, group):
        callback = self._callbacks[group]
        queue = self._dish_queues[group]
        while True:
            packet = yield Get(queue)
            self.received.value += 1
            callback(group, packet)
