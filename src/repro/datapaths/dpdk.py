"""The DPDK datapath: kernel-bypassing poll-mode driver.

The NIC's receive flow steering directs claimed ports straight into a
userspace queue; a busy-polling thread (lcore) drains it in bursts.  Every
received packet occupies an mbuf from the *mempool*; if the mempool is
exhausted the packet is dropped at the driver, exactly like running out of
rx descriptors on real hardware.  Packets carry their mempool buffer in
``rx_buffer``; consumers must release it.

The fixed component of the burst-call costs amortizes across the burst,
which is what makes DPDK (and INSANE's opportunistic batching on top of it)
fast under load.
"""

from repro.datapaths.base import Datapath, DatapathInfo
from repro.simnet import Counter, Get, Timeout

#: pseudo-port carrying ARP exchanges on the simulated wire (the frame
#: model is UDP-shaped; the ARP payload bytes themselves are the real
#: RFC 826 encoding from repro.netstack.arp)
ARP_PORT = 2054  # == 0x0806, the ARP ethertype


class DpdkDatapath(Datapath):
    info = DatapathInfo(
        name="dpdk",
        kernel_integration="kernel-bypassing",
        api="RTE",
        zero_copy=True,
        cpu_consumption="busy polling",
        dedicated_hardware=False,
    )

    tx_stages = ("ustack_tx", "dpdk_tx")
    tx_done_key = "dpdk_tx_done"
    rx_stages = ("dpdk_rx", "ustack_rx")
    rx_done_key = "dpdk_rx_done"

    def __init__(self, host, mempool=None):
        super().__init__(host)
        # imported here to keep repro.core <-> repro.datapaths acyclic
        from repro.core.memory import SlotPool

        self.mempool = mempool or SlotPool(
            host.sim,
            slots=self.profile.scalar("pool_slots"),
            slot_bytes=self.profile.scalar("pool_slot_bytes"),
            name=host.name + ".dpdk.mempool",
        )
        self.rx_burst = int(self.profile.scalar("dpdk_rx_burst"))
        self.detect_ns = self.profile.scalar("dpdk_poll_detect_ns")
        self.mempool_drops = Counter(host.name + ".dpdk.mempool_drops")
        self._queues = {}
        self.arp = None  # created by enable_arp()

    @classmethod
    def available(cls, profile):
        return profile.dpdk_capable

    # -- port management -------------------------------------------------------

    def open_port(self, port):
        """Claim ``port`` via flow steering; returns the receive queue."""
        queue = self.nic.create_queue([port])
        self._queues[port] = queue
        return queue

    def close_port(self, port):
        self._queues.pop(port, None)
        self.nic.release_port(port)

    # -- receive ------------------------------------------------------------------

    def _accept(self, packet):
        """Move the payload into an mbuf; drop the packet when out of mbufs
        (rx-descriptor starvation).  :meth:`recv_burst` returns only the
        packets that got one."""
        buffer = self.mempool.try_alloc()
        if buffer is None:
            self.mempool_drops.value += 1
            return False
        if packet.payload is not None:
            buffer.write(packet.payload)
            packet.payload = buffer.payload()
        else:
            buffer.length = min(packet.payload_len, buffer.capacity)
        packet.rx_buffer = buffer
        return True

    @staticmethod
    def release_rx(packet):
        """Return a received packet's mbuf to the mempool."""
        buffer = packet.rx_buffer
        if buffer is not None:
            packet.rx_buffer = None
            buffer.pool.release(buffer)

    # -- ARP control path ----------------------------------------------------

    def enable_arp(self):
        """Start the userspace ARP responder/resolver on this datapath.

        A kernel-bypassing application cannot use the kernel's neighbor
        table; this gives it the stack's own resolver
        (:class:`repro.netstack.arp.ArpResolver`) exchanging real RFC 826
        packets over the wire.  Returns the resolver.
        """
        from repro.netstack import MacAddress
        from repro.netstack.arp import ArpResolver

        if self.arp is not None:
            return self.arp
        own_index = int(self.host.ip.rsplit(".", 1)[1])
        self._arp_mac = MacAddress.from_index(own_index)
        self._arp_queue = self.nic.create_queue([ARP_PORT], capacity=64)
        self.arp = ArpResolver(
            self.sim,
            self._arp_mac,
            self.host.ip,
            send_request=self._send_arp_request,
        )
        self.sim.process(self._arp_responder(), name=self.host.name + ".arp")
        return self.arp

    def resolve(self, dst_ip):
        """Resolve a peer's MAC over the wire (generator)."""
        if self.arp is None:
            raise RuntimeError("call enable_arp() before resolve()")
        return (yield from self.arp.resolve(dst_ip))

    def _send_arp_request(self, target_ip):
        from repro.netstack import Packet
        from repro.netstack.arp import ArpPacket

        request = ArpPacket.request(self._arp_mac, self.host.ip, target_ip)
        packet = Packet(self.host.ip, target_ip, ARP_PORT, ARP_PORT,
                        payload=request.to_bytes(), seq=next(self.sim.ids))
        self.nic.transmit(packet)

    def _arp_responder(self):
        from repro.netstack import Packet
        from repro.netstack.arp import ArpPacket

        while True:
            incoming = yield Get(self._arp_queue)
            yield Timeout(self.host.jitter(200.0))  # driver->stack handling
            try:
                arp = ArpPacket.from_bytes(incoming.payload_bytes())
            except ValueError:
                continue
            self.arp.on_reply(arp)  # learn sender binding (also handles replies)
            reply = self.arp.make_reply_for(arp)
            if reply is not None:
                packet = Packet(self.host.ip, arp.sender_ip, ARP_PORT, ARP_PORT,
                                payload=reply.to_bytes(), seq=next(self.sim.ids))
                self.nic.transmit(packet)
