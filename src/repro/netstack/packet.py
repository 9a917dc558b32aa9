"""The hot-path packet representation.

A :class:`Packet` is one UDP datagram in flight.  To keep zero-copy
semantics observable, ``payload`` may be a :class:`memoryview` into a
memory-pool slot; ``payload_len`` is authoritative for all cost and wire
computations so throughput runs may carry size-only packets.

Packets are *slotted records*: the metadata keys the per-packet hot path
reads and writes — the INSANE stream header (``insane``), the scheduler
flow label (``flow``), and the TX/RX pool buffers — are ``__slots__``
attributes, so lookups are attribute loads instead of dict operations.
Cold keys (a baseline's topic or group, a generated fabric's QoS class
and flow id) live in one plain dict in the ``meta`` slot, which stays
``None`` unless the code that builds the packet assigns one.

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
        # -- hot metadata ------------------------------------------------
        "insane",      # (stream, channel, length) INSANE header tuple
        "flow",        # scheduler flow label
        "tx_buffer",   # TX pool slot, released when the frame departs
        "rx_buffer",   # RX mbuf (DPDK mempool staging)
        "meta",        # cold keys (dds_topic, qos_class, ...) or None
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
        self.meta = None

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


def trace_drop(trace, now, reason):
    """Close a traced packet's lifecycle record as dropped.

    Callers guard with ``if trace is not None``.  Duck-typed so that the
    packet path never imports :mod:`repro.obs`: a plain-dict trace
    (``RuntimeConfig.trace``) has no ``mark_dropped`` and is left as is.
    """
    mark = getattr(trace, "mark_dropped", None)
    if mark is not None:
        mark(now, reason)


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
