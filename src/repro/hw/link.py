"""Point-to-point cable between two NICs (or a NIC and a switch port)."""

from repro.netstack.packet import trace_drop
from repro.simnet import Counter


class Link:
    """A full-duplex cable with fixed propagation delay.

    Serialization is modelled at the transmitting NIC (or switch port), so a
    link only adds propagation.  For failure-injection experiments a
    ``loss_rate`` (0..1) may be set: each frame is then dropped with that
    probability, counted in :attr:`lost_frames` — INSANE is best-effort by
    design (paper §5.2), so applications must tolerate this.
    """

    def __init__(self, sim, end_a, end_b, propagation_ns):
        self.sim = sim
        self.end_a = end_a
        self.end_b = end_b
        self.propagation_ns = propagation_ns
        self.loss_rate = 0.0
        #: False while the cable is administratively/physically down
        #: (fault injection: link flap); every frame is then lost.
        self.up = True
        self.lost_frames = Counter("link.lost_frames")
        #: frames the fluid tier (repro.fluid) carried analytically rather
        #: than as simulated events; event-driven counters stay untouched
        #: so conservation across fidelity modes is checkable
        self.fluid_frames = Counter("link.fluid_frames")
        #: attached :class:`repro.trace.WireTap` instances
        self.taps = []
        end_a.egress = self
        end_b.egress = self
        # Fast-engine hop fusion (DESIGN.md §11): the receiving end's
        # arrival hop runs at carry time with counter parity — a NIC's
        # rx DMA lands the frame in its ring, a switch routes it to its
        # output port, each on the bit-identical instant via
        # schedule_abs — unless the receiver's ``arrive`` declines.  The
        # legacy engine, which has no schedule_abs, keeps the two-event
        # wire path.
        self._fuse = getattr(sim, "_lane", None) is not None

    def carry(self, frame, sender, tx_buffer=None):
        """Propagate ``frame`` from ``sender`` to the opposite end.

        A sending NIC on the fast engine passes the TX slot the frame
        holds (``tx_buffer``).  It returns to its pool at the end of this
        event, the frame's departure, just as the release event that
        would have followed at the same instant frees it.
        """
        if sender is self.end_a:
            receiver = self.end_b
        elif sender is self.end_b:
            receiver = self.end_a
        else:
            raise ValueError("frame sent on a link by a foreign endpoint")
        sim = self.sim
        dropped = (not self.up) or (
            self.loss_rate > 0.0 and sim.rng.random() < self.loss_rate
        )
        for tap in self.taps:
            tap.record(frame, sim.now, dropped=dropped)
        trace = frame.packet.trace
        if trace is not None:
            # first hop only: re-stamping on the switch-to-NIC hop would
            # rewrite the value in its original insertion position and
            # break the stage ordering derived from insertion order
            trace.setdefault("link_carry", sim.now)
            if dropped:
                trace_drop(trace, sim.now,
                           "link down" if not self.up else "link loss")
        if dropped:
            self.lost_frames.value += 1
        else:
            # the arrival instant is the float schedule() would compute
            arrival = sim.now + self.propagation_ns
            if not (self._fuse and receiver.arrive(frame, arrival)):
                sim.schedule(self.propagation_ns, receiver.receive, frame)
        if tx_buffer is not None:
            tx_buffer.pool.release(tx_buffer)
            sim._executed += 1  # parity with the elided release event

    def account_fluid(self, frames):
        """Account ``frames`` modelled (not simulated) crossings."""
        self.fluid_frames.value += frames

    # -- fault injection ---------------------------------------------------

    def take_down(self):
        """Cut the cable: every frame is lost until :meth:`bring_up`.

        Note the ordering with :attr:`loss_rate`: a downed link consumes
        no rng draws, so a flap does not shift the random stream of other
        loss processes (determinism contract).
        """
        self.up = False

    def bring_up(self):
        self.up = True
