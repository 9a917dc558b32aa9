"""The hot-path packet representation.

A :class:`Packet` is one UDP datagram in flight.  To keep zero-copy
semantics observable, ``payload`` may be a :class:`memoryview` into a
memory-pool slot; ``payload_len`` is authoritative for all cost and wire
computations so throughput runs may carry size-only packets.

Packets are *slotted records*: the metadata keys the per-packet hot path
reads and writes — the INSANE stream header (``insane``), the scheduler
flow label (``flow``), and the TX/RX pool buffers — are ``__slots__``
attributes, so lookups are attribute loads instead of dict operations and
no per-packet ``meta`` dict is allocated.  Cold paths (baselines, ARP,
obs/validate tooling) keep dict-style access through the :class:`PacketMeta`
shim returned by the ``meta`` property, which maps the hot keys onto the
slots and spills anything else into a lazily-created ``_extra`` dict.

A process-global :class:`PacketPool` free-list recycles records on the
runtime delivery path: ``acquire`` resets every field (including a fresh
global ``seq``, so pooled and freshly-allocated packets are byte-identical
in behaviour) and falls back to plain allocation when the pool is empty —
it never blocks.

``wire_bytes`` produces the real on-the-wire byte string (Ethernet + IPv4 +
UDP + payload) using the codecs in this package; it is exercised by tests
and by datapaths running with ``deep_processing`` enabled, while the default
simulation accounts header processing as a stage cost instead.
"""

from repro.netstack.addresses import MacAddress
from repro.netstack.ethernet import EthernetHeader
from repro.netstack.ipv4 import Ipv4Header
from repro.netstack.udp import UdpHeader

#: Ethernet header + FCS + preamble/SFD + inter-frame gap, in bytes.
ETHERNET_OVERHEAD = 14 + 4 + 8 + 12

#: IPv4 + UDP headers, in bytes.
IP_UDP_HEADER = Ipv4Header.LENGTH + UdpHeader.LENGTH

#: Total per-datagram wire overhead for a non-fragmented UDP packet.
WIRE_OVERHEAD = ETHERNET_OVERHEAD + IP_UDP_HEADER

_packet_counter = [0]


#: stride between per-partition sequence bases: partition ``i`` of a
#: partitioned run counts from ``i * PARTITION_SEQ_STRIDE``, so ids stay
#: globally unique across the whole logical run (2**48 packets per
#: partition is unreachable in practice).
PARTITION_SEQ_STRIDE = 1 << 48


def partition_seq_base(index):
    """The packet-sequence base of partition ``index`` of a logical run."""
    if index < 0:
        raise ValueError("partition index must be >= 0, got %r" % (index,))
    return index * PARTITION_SEQ_STRIDE


def reset_packet_counter(base=0):
    """Reset the global packet sequence counter (and drain the free-list).

    Packet ``seq`` numbers are process-global, so two experiment cells run
    back-to-back in one process would otherwise see different absolute
    sequence numbers than the same cells run in fresh worker processes.
    :func:`repro.simnet.cell.run_cell` calls this before every cell so a
    cell's observable behaviour is identical wherever it executes.  The
    packet pool is re-blanked for the same reason: a cell starts from
    factory-fresh records whether or not another cell ran first.

    ``base`` offsets the counter: the partitions of one space-partitioned
    run (:mod:`repro.dist`) each reset to :func:`partition_seq_base` of
    their partition index, so the ids minted by different partitions of
    the *same* logical run never collide.
    """
    _packet_counter[0] = base
    PACKET_POOL.reset()


#: metadata keys promoted to slots — everything the per-packet hot path
#: touches; anything else goes through the ``_extra`` spill dict
_HOT_KEYS = frozenset(("insane", "flow", "tx_buffer", "rx_buffer"))


class Packet:
    """One UDP datagram, possibly carrying a zero-copy payload view."""

    __slots__ = (
        "src_ip",
        "dst_ip",
        "src_port",
        "dst_port",
        "payload",
        "payload_len",
        "seq",
        "trace",
        # -- hot metadata, promoted from the former meta dict ------------
        "insane",      # (stream, channel, length) INSANE header tuple
        "flow",        # scheduler flow label
        "tx_buffer",   # TX pool slot, released when the frame departs
        "rx_buffer",   # RX mbuf (DPDK mempool staging)
        "_extra",      # lazy spill dict for cold keys (arp, dds_topic, ...)
    )

    def __init__(self, src_ip, dst_ip, src_port, dst_port, payload=None, payload_len=None, trace=None):
        self.src_ip = src_ip
        self.dst_ip = dst_ip
        self.src_port = src_port
        self.dst_port = dst_port
        self.payload = payload
        if payload_len is None:
            if payload is None:
                raise ValueError("either payload or payload_len is required")
            payload_len = len(payload)
        self.payload_len = payload_len
        _packet_counter[0] += 1
        self.seq = _packet_counter[0]
        self.trace = trace
        self.insane = None
        self.flow = None
        self.tx_buffer = None
        self.rx_buffer = None
        self._extra = None

    @property
    def meta(self):
        """Dict-compatible view over the slotted metadata (cold paths)."""
        return PacketMeta(self)

    @property
    def wire_size(self):
        """Bytes this datagram occupies on the wire, overhead included."""
        return self.payload_len + WIRE_OVERHEAD

    def payload_bytes(self):
        """Materialize the payload as ``bytes`` (copies a memoryview)."""
        if self.payload is None:
            return b"\x00" * self.payload_len
        return bytes(self.payload)

    def stamp(self, key, now):
        """Record a trace timestamp when tracing is enabled."""
        if self.trace is not None:
            self.trace[key] = now

    def __repr__(self):
        return "Packet(#%d %s:%d -> %s:%d, %dB)" % (
            self.seq,
            self.src_ip,
            self.src_port,
            self.dst_ip,
            self.dst_port,
            self.payload_len,
        )


class PacketMeta:
    """A dict-compatible shim over a packet's slotted metadata.

    Hot keys (``insane``, ``flow``, ``tx_buffer``, ``rx_buffer``) read and
    write the packet's slots; other keys spill into the lazily-created
    ``_extra`` dict.  ``None`` marks an absent hot key — no caller stores a
    literal ``None`` value.  Only cold paths (baselines, ARP, obs/validate
    tooling) go through this shim; hot paths use the attributes directly.
    """

    __slots__ = ("_packet",)

    def __init__(self, packet):
        self._packet = packet

    def get(self, key, default=None):
        if key in _HOT_KEYS:
            value = getattr(self._packet, key)
            return default if value is None else value
        extra = self._packet._extra
        if extra is None:
            return default
        return extra.get(key, default)

    def pop(self, key, default=None):
        if key in _HOT_KEYS:
            value = getattr(self._packet, key)
            if value is None:
                return default
            setattr(self._packet, key, None)
            return value
        extra = self._packet._extra
        if extra is None:
            return default
        return extra.pop(key, default)

    def __getitem__(self, key):
        if key in _HOT_KEYS:
            value = getattr(self._packet, key)
            if value is None:
                raise KeyError(key)
            return value
        extra = self._packet._extra
        if extra is None:
            raise KeyError(key)
        return extra[key]

    def __setitem__(self, key, value):
        if key in _HOT_KEYS:
            setattr(self._packet, key, value)
            return
        extra = self._packet._extra
        if extra is None:
            extra = self._packet._extra = {}
        extra[key] = value

    def __delitem__(self, key):
        if key in _HOT_KEYS:
            if getattr(self._packet, key) is None:
                raise KeyError(key)
            setattr(self._packet, key, None)
            return
        extra = self._packet._extra
        if extra is None:
            raise KeyError(key)
        del extra[key]

    def __contains__(self, key):
        if key in _HOT_KEYS:
            return getattr(self._packet, key) is not None
        extra = self._packet._extra
        return extra is not None and key in extra

    def setdefault(self, key, default=None):
        if key in self:
            return self[key]
        self[key] = default
        return default

    def keys(self):
        packet = self._packet
        out = [key for key in _HOT_KEYS if getattr(packet, key) is not None]
        if packet._extra is not None:
            out.extend(packet._extra.keys())
        return out

    def items(self):
        return [(key, self[key]) for key in self.keys()]

    def values(self):
        return [self[key] for key in self.keys()]

    def __iter__(self):
        return iter(self.keys())

    def __len__(self):
        return len(self.keys())

    def __bool__(self):
        return len(self.keys()) > 0

    def __repr__(self):
        return "PacketMeta(%r)" % (dict(self.items()),)


class PacketPool:
    """A preallocated free-list of :class:`Packet` records.

    ``acquire`` mirrors ``Packet.__init__`` exactly — including the global
    sequence-counter bump and the ``payload_len`` validation — so a pooled
    record is observationally identical to a fresh one.  Exhaustion falls
    back to plain allocation (never blocks, never fails); ``release``
    clears every reference-holding field before parking the record so no
    buffer, trace, or payload outlives its packet.
    """

    __slots__ = ("capacity", "preallocate", "_free")

    def __init__(self, capacity=1024, preallocate=256):
        self.capacity = capacity
        self.preallocate = preallocate
        self._free = []
        self.reset()

    def reset(self):
        """Drop all parked records and re-preallocate blanks."""
        new = Packet.__new__
        self._free[:] = [new(Packet) for _ in range(self.preallocate)]

    def acquire(self, src_ip, dst_ip, src_port, dst_port, payload=None,
                payload_len=None, trace=None):
        """A fully-reset packet record, pooled when possible."""
        free = self._free
        packet = free.pop() if free else Packet.__new__(Packet)
        packet.src_ip = src_ip
        packet.dst_ip = dst_ip
        packet.src_port = src_port
        packet.dst_port = dst_port
        packet.payload = payload
        if payload_len is None:
            if payload is None:
                raise ValueError("either payload or payload_len is required")
            payload_len = len(payload)
        packet.payload_len = payload_len
        _packet_counter[0] += 1
        packet.seq = _packet_counter[0]
        packet.trace = trace
        packet.insane = None
        packet.flow = None
        packet.tx_buffer = None
        packet.rx_buffer = None
        packet._extra = None
        return packet

    def release(self, packet):
        """Park ``packet`` for reuse (dropped when the pool is full).

        Only call this at a provably-bounded lifetime point — after the
        packet's last consumer is done with it (the runtime's dispatch
        path); protocols that retain packets (retransmit queues) must not
        release.
        """
        if len(self._free) < self.capacity:
            packet.payload = None
            packet.trace = None
            packet.insane = None
            packet.flow = None
            packet.tx_buffer = None
            packet.rx_buffer = None
            packet._extra = None
            self._free.append(packet)


#: the process-global free-list used by the runtime delivery path
PACKET_POOL = PacketPool()


def wire_bytes(packet, src_mac=None, dst_mac=None):
    """Serialize ``packet`` to its full on-the-wire byte string."""
    src_mac = src_mac or MacAddress.from_index(1)
    dst_mac = dst_mac or MacAddress.from_index(2)
    payload = packet.payload_bytes()
    udp = UdpHeader(packet.src_port, packet.dst_port, len(payload))
    ip = Ipv4Header(
        packet.src_ip,
        packet.dst_ip,
        Ipv4Header.LENGTH + UdpHeader.LENGTH + len(payload),
        identification=packet.seq & 0xFFFF,
    )
    eth = EthernetHeader(dst_mac, src_mac)
    return eth.to_bytes() + ip.to_bytes() + udp.to_bytes() + payload


def parse_wire_bytes(data):
    """Parse bytes produced by :func:`wire_bytes` back into a :class:`Packet`."""
    eth = EthernetHeader.from_bytes(data)
    offset = EthernetHeader.LENGTH
    ip = Ipv4Header.from_bytes(data[offset:])
    offset += Ipv4Header.LENGTH
    udp = UdpHeader.from_bytes(data[offset:])
    offset += UdpHeader.LENGTH
    payload = bytes(data[offset : offset + udp.payload_length])
    if len(payload) != udp.payload_length:
        raise ValueError("truncated UDP payload")
    return Packet(ip.src, ip.dst, udp.src_port, udp.dst_port, payload=payload), eth
