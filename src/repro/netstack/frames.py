"""MTU and jumbo-frame policy.

The INSANE prototype does not support UDP/IP fragmentation (it would break
zero-copy reconstruction, paper §8); payloads larger than the standard MTU
travel in jumbo frames, which the runtime always enables, and anything
larger than the jumbo MTU must be fragmented at the application level
(:mod:`repro.netstack.fragment`).
"""

from repro.netstack.packet import IP_UDP_HEADER


class FramePolicy:
    """Decides how large a payload one frame may carry."""

    def __init__(self, mtu=1500, jumbo_mtu=9000):
        if jumbo_mtu < mtu:
            raise ValueError("jumbo MTU smaller than standard MTU")
        self.mtu = mtu
        self.jumbo_mtu = jumbo_mtu

    @property
    def max_payload(self):
        """Largest UDP payload a single jumbo frame can carry."""
        return self.jumbo_mtu - IP_UDP_HEADER

    def validate(self, payload_len):
        """Raise ``ValueError`` when a payload cannot be sent unfragmented."""
        if payload_len > self.max_payload:
            raise ValueError(
                "payload of %d B exceeds max frame payload %d B; use "
                "application-level fragmentation" % (payload_len, self.max_payload)
            )
