"""The transmit scheduler: FIFO, with 802.1Qbv time-aware priority.

By default INSANE sends packets in FIFO order as soon as they are emitted.
Streams labelled time-sensitive are instead handled by a Time-Sensitive
Networking (TSN) scheduler implementing the 802.1Qbv time-aware shaper: a
cyclic *gate control list* opens and closes per-traffic-class gates, so
time-critical traffic transmits in protected windows with deterministic
latency regardless of best-effort load (paper §5.2/§5.3).

Each datapath binding owns one :class:`TxScheduler` holding both queues.
Best-effort packets pass no gate; time-sensitive packets wait for their
gate and go ahead of best effort once it is open.
"""

from collections import deque

#: Traffic classes (a subset of the eight 802.1Q priorities).
CLASS_BEST_EFFORT = 0
CLASS_TIME_SENSITIVE = 6


class GateControlList:
    """A cyclic 802.1Qbv gate schedule.

    ``entries`` is a list of ``(duration_ns, open_classes)`` executed in
    order, repeating every cycle.
    """

    def __init__(self, entries):
        if not entries:
            raise ValueError("gate control list needs at least one entry")
        self.entries = []
        offset = 0
        for duration, open_classes in entries:
            if duration <= 0:
                raise ValueError("gate entry duration must be positive")
            self.entries.append((offset, duration, frozenset(open_classes)))
            offset += duration
        self.cycle_ns = offset

    @classmethod
    def default(cls, cycle_ns=100_000, ts_fraction=0.3):
        """A simple two-window schedule: a protected time-sensitive window
        followed by a best-effort window."""
        ts_window = int(cycle_ns * ts_fraction)
        return cls(
            [
                (ts_window, {CLASS_TIME_SENSITIVE}),
                (cycle_ns - ts_window, {CLASS_BEST_EFFORT, CLASS_TIME_SENSITIVE}),
            ]
        )

    def is_open(self, traffic_class, now):
        phase = now % self.cycle_ns
        for offset, duration, open_classes in self.entries:
            if offset <= phase < offset + duration:
                return traffic_class in open_classes
        raise AssertionError("phase %r not covered by gate control list" % phase)

    def next_open_at(self, traffic_class, now):
        """The earliest time >= now at which the class's gate is open."""
        if self.is_open(traffic_class, now):
            return now
        phase = now % self.cycle_ns
        cycle_start = now - phase
        # scan this cycle and the next (the gate opens at least once per
        # cycle for any class present in some entry)
        for base in (cycle_start, cycle_start + self.cycle_ns):
            for offset, _duration, open_classes in self.entries:
                start = base + offset
                if traffic_class in open_classes and start >= now:
                    return start
        raise ValueError(
            "traffic class %r never opens in this gate control list" % traffic_class
        )


class TxScheduler:
    """One binding's transmit queue: a best-effort FIFO and, behind the
    gate control list ``gcl``, a time-sensitive FIFO that goes first.

    Traced packets get their ``sched_enqueue`` stamp on :meth:`push` and
    their ``sched_dequeue`` stamp on :meth:`pop_ready`.
    """

    def __init__(self, gcl=None):
        self.gcl = gcl or GateControlList.default()
        self._best_effort = deque()
        self._time_sensitive = deque()

    def __len__(self):
        return len(self._best_effort) + len(self._time_sensitive)

    def push(self, packet, time_sensitive, now):
        trace = packet.trace
        if trace is not None:
            trace["sched_enqueue"] = now
        if time_sensitive:
            self._time_sensitive.append(packet)
        else:
            self._best_effort.append(packet)

    def pop_ready(self, now, max_items):
        """Up to ``max_items`` packets eligible at virtual time ``now``:
        the time-sensitive ones while their gate is open, then best
        effort."""
        batch = []
        queue = self._time_sensitive
        if queue and self.gcl.is_open(CLASS_TIME_SENSITIVE, now):
            while queue and len(batch) < max_items:
                batch.append(queue.popleft())
        queue = self._best_effort
        while queue and len(batch) < max_items:
            batch.append(queue.popleft())
        # tracing is on or off for a whole runtime: the head tells
        if batch and batch[0].trace is not None:
            for packet in batch:
                packet.trace["sched_dequeue"] = now
        return batch

    def next_ready_at(self, now):
        """Earliest time anything becomes eligible, or None when empty."""
        if self._best_effort:
            return now
        if self._time_sensitive:
            return self.gcl.next_open_at(CLASS_TIME_SENSITIVE, now)
        return None

    def take_all(self):
        """Empty both queues at once, gate or no gate; returns their
        packets, best effort first."""
        packets = list(self._best_effort)
        packets.extend(self._time_sensitive)
        self._best_effort.clear()
        self._time_sensitive.clear()
        return packets
