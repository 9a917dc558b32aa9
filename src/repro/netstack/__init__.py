"""A minimal userspace network stack.

Kernel-bypassing datapaths (DPDK, XDP) must bring their own network and
transport protocols (paper §3).  This package is that stack: Ethernet, IPv4
and UDP header codecs with real byte-level serialization, the internet
checksum, MTU/jumbo-frame policy, and application-level fragmentation and
reassembly (used by the LUNAR streaming framework).

On the simulated hot path, header *construction* cost is accounted by the
``ustack_tx``/``ustack_rx`` stage costs; the codecs here exist so the stack
is a real, testable implementation rather than a constant.
"""

from repro.netstack.addresses import MacAddress, ip_to_int, int_to_ip
from repro.netstack.checksum import internet_checksum
from repro.netstack.ethernet import EthernetHeader
from repro.netstack.ipv4 import Ipv4Header
from repro.netstack.udp import UdpHeader
from repro.netstack.packet import (
    ETHERNET_OVERHEAD,
    IP_UDP_HEADER,
    WIRE_OVERHEAD,
    Packet,
    wire_bytes,
)
from repro.netstack.frames import FramePolicy
from repro.netstack.fragment import Fragmenter, Reassembler
from repro.netstack.arp import ArpPacket, ArpResolver, ArpTimeout
from repro.netstack.icmp import IcmpEcho

__all__ = [
    "ArpPacket",
    "ArpResolver",
    "ArpTimeout",
    "ETHERNET_OVERHEAD",
    "EthernetHeader",
    "IcmpEcho",
    "FramePolicy",
    "Fragmenter",
    "IP_UDP_HEADER",
    "Ipv4Header",
    "MacAddress",
    "Packet",
    "Reassembler",
    "UdpHeader",
    "WIRE_OVERHEAD",
    "internet_checksum",
    "int_to_ip",
    "ip_to_int",
    "wire_bytes",
]
