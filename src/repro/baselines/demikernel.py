"""A Demikernel-like library OS baseline (paper §4, §6.2).

Demikernel exposes POSIX-style asynchronous queues implemented by userspace
libraries, one per I/O technology.  We model the two libraries the paper
benchmarks:

* **Catnap** — maps network operations to kernel sockets;
* **Catnip** — maps to DPDK, optimized for latency: it "sends one packet
  per time on the network", so every push is synchronous with the wire and
  nothing amortizes across packets (the root of its Fig. 8a throughput gap
  against INSANE's opportunistic batching).

Structurally, Demikernel is a *library* compiled with the application: the
datapath runs in-process, so there is no IPC hop and no runtime dispatch —
cheaper than INSANE per packet, but single-application and bound to one
technology at compile time.
"""

from repro.datapaths import DpdkDatapath, KernelUdpDatapath
from repro.netstack import Packet
from repro.simnet import AnyOf, RateMeter, Signal, Tally, Timeout, Wait


class QToken:
    """A handle to an asynchronous Demikernel operation.

    Real Demikernel returns qtokens from ``demi_push``/``demi_pop`` and
    completes them through ``demi_wait``/``demi_wait_any``; this mirrors
    that contract on top of the simulated queues.
    """

    def __init__(self, sim, kind):
        self.qtoken_id = next(sim.ids)
        self.kind = kind             # "push" | "pop"
        self.signal = Signal(sim)

    @property
    def completed(self):
        return self.signal.fired

    @property
    def result(self):
        return self.signal.value


def demi_wait(qtoken):
    """Block until one operation completes (generator); returns its result."""
    return (yield Wait(qtoken.signal))


def demi_wait_any(qtokens):
    """Block until the first of several operations completes (generator);
    returns ``(index, result)``."""
    index, value = yield AnyOf([qt.signal for qt in qtokens])
    return index, value


class DemiQueue:
    """One Demikernel I/O queue bound to a port on one host."""

    def __init__(self, host, flavor, port):
        if flavor not in ("catnap", "catnip"):
            raise ValueError("flavor must be 'catnap' or 'catnip'")
        self.host = host
        self.sim = host.sim
        self.flavor = flavor
        self.port = port
        self.lib_stage = "catnap_lib" if flavor == "catnap" else "catnip_lib"
        if flavor == "catnap":
            self.socket = KernelUdpDatapath.get(host).socket(port, blocking=False)
        else:
            self.datapath = DpdkDatapath(host)
            self.queue = self.datapath.open_port(port)

    def _lib_cost(self, size, burst=1):
        return Timeout(self.host.stage_cost(self.lib_stage, size, burst=burst))

    def push(self, packet):
        """Submit one transmit operation (``demi_push``)."""
        yield self._lib_cost(packet.payload_len)
        if self.flavor == "catnap":
            yield from self.socket.send(packet)
        else:
            # Catnip: one packet at a time, synchronous with the wire.
            yield self.host.stage_cost_effect("ustack_tx", packet.payload_len)
            yield self.host.stage_cost_effect("dpdk_tx", packet.payload_len)
            departure = self.datapath.transmit(packet)
            if departure > self.sim.now:
                yield Timeout(departure - self.sim.now)

    def push_many(self, packets):
        """Submit a batch of transmit operations in one scheduler pass.

        Catnap's scheduler coalesces pending pushes into one socket call
        (sendmmsg-style); Catnip refuses to batch by design, so this is a
        plain loop of synchronous pushes there.
        """
        if self.flavor == "catnip":
            for packet in packets:
                yield from self.push(packet)
            return
        burst = len(packets)
        for packet in packets:
            yield self._lib_cost(packet.payload_len, burst=burst)
        yield from self.socket.send_many(packets)

    # -- asynchronous (qtoken) interface ---------------------------------

    def push_async(self, packet):
        """``demi_push``: submit a transmit; returns a :class:`QToken`."""
        qtoken = QToken(self.sim, "push")

        def op():
            yield from self.push(packet)
            return packet

        process = self.sim.process(op(), name="demi.push")
        process.done.add_waiter(lambda value, exc: qtoken.signal.succeed(value))
        return qtoken

    def pop_async(self, max_burst=32):
        """``demi_pop``: submit a receive; returns a :class:`QToken`."""
        qtoken = QToken(self.sim, "pop")

        def op():
            batch = yield from self.pop(max_burst)
            return batch

        process = self.sim.process(op(), name="demi.pop")
        process.done.add_waiter(lambda value, exc: qtoken.signal.succeed(value))
        return qtoken

    def pop(self, max_burst=32):
        """Wait for received data (``demi_pop``); returns a list of packets."""
        if self.flavor == "catnap":
            batch = yield from self.socket.recv_many(max_burst)
        else:
            batch = yield from self.datapath.recv_burst(self.queue, max_burst)
            for packet in batch:
                DpdkDatapath.release_rx(packet)
        yield self._lib_cost(
            batch[0].payload_len if batch else 0, burst=max(1, len(batch))
        )
        return batch


class DemikernelApp:
    """Ping-pong and streaming drivers over Demikernel queues."""

    def __init__(self, testbed, flavor, port=None):
        self.testbed = testbed
        self.sim = testbed.sim
        self.flavor = flavor
        self.port = port or (7002 if flavor == "catnap" else 7003)
        self.client_host = testbed.hosts[0]
        self.server_host = testbed.hosts[1]
        self.client_q = DemiQueue(self.client_host, flavor, self.port)
        self.server_q = DemiQueue(self.server_host, flavor, self.port)

    def pingpong(self, rounds, size):
        sim = self.sim
        rtts = Tally("%s_rtt" % self.flavor)

        def client():
            for _ in range(rounds):
                start = sim.now
                yield from self.client_q.push(
                    self._packet(self.client_host, self.server_host, size)
                )
                yield from self.client_q.pop()
                rtts.record(sim.now - start)

        def server():
            while True:
                batch = yield from self.server_q.pop()
                for packet in batch:
                    yield from self.server_q.push(
                        self._packet(self.server_host, self.client_host, packet.payload_len)
                    )

        sim.process(server(), name=self.flavor + ".server")
        sim.process(client(), name=self.flavor + ".client")
        sim.run()
        return rtts

    def stream(self, messages, size, burst=32):
        sim = self.sim
        meter = RateMeter("%s_stream" % self.flavor)

        def sender():
            remaining = messages
            while remaining:
                count = min(burst, remaining)
                packets = [
                    self._packet(self.client_host, self.server_host, size)
                    for _ in range(count)
                ]
                yield from self.client_q.push_many(packets)
                remaining -= count

        def receiver():
            received = 0
            while received < messages:
                batch = yield from self.server_q.pop(burst)
                for _packet in batch:
                    meter.record(sim.now, size)
                received += len(batch)

        sim.process(receiver(), name=self.flavor + ".rx")
        sim.process(sender(), name=self.flavor + ".tx")
        sim.run()
        return meter

    def _packet(self, src, dst, size):
        return Packet(src.ip, dst.ip, self.port, self.port, payload_len=size,
                      seq=next(self.sim.ids))
