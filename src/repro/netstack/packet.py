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

``seq`` is an id the caller passes in: code running inside a simulation
draws it from that simulation's ``sim.ids``, so two simulators in one
process never share an id stream.  Packets built outside any simulation
(codec tests, :func:`parse_wire_bytes`) keep the default ``0``.

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

    def __init__(self, src_ip, dst_ip, src_port, dst_port, payload=None,
                 payload_len=None, trace=None, seq=0):
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
        self.seq = seq
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
