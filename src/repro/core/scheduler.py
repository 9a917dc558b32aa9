"""Packet schedulers: FIFO and the IEEE 802.1Qbv time-aware scheduler.

By default INSANE sends packets in FIFO order as soon as they are emitted.
Streams labelled time-sensitive are instead handled by a Time-Sensitive
Networking (TSN) scheduler implementing the 802.1Qbv time-aware shaper: a
cyclic *gate control list* opens and closes per-traffic-class gates, so
time-critical traffic transmits in protected windows with deterministic
latency regardless of best-effort load (paper §5.2/§5.3).
"""

from collections import deque

#: Traffic classes (a subset of the eight 802.1Q priorities).
CLASS_BEST_EFFORT = 0
CLASS_TIME_SENSITIVE = 6


def _stamp(item, key, now):
    """Record a lifecycle stamp on a traced packet.

    Packets carry ``trace is None`` unless tracing is on, so the cost with
    tracing off is one attribute load and a ``None`` check per item."""
    trace = getattr(item, "trace", None)
    if trace is not None:
        trace[key] = now


def _stamp_batch(batch, now):
    """Stamp ``sched_dequeue`` on a popped batch.

    Batches are homogeneous within a run (tracing is either on or off for
    the whole simulation), so checking the head is enough to skip the
    per-item loop entirely when tracing is off."""
    if batch and getattr(batch[0], "trace", None) is not None:
        for item in batch:
            trace = getattr(item, "trace", None)
            if trace is not None:
                trace["sched_dequeue"] = now


class FifoScheduler:
    """Send packets in emission order, immediately."""

    name = "fifo"

    def __init__(self):
        self._queue = deque()

    def __len__(self):
        return len(self._queue)

    def push(self, item, traffic_class=CLASS_BEST_EFFORT, now=0):
        _stamp(item, "sched_enqueue", now)
        self._queue.append(item)

    def pop_ready(self, now, max_items):
        """Items eligible for transmission at virtual time ``now``."""
        batch = []
        while self._queue and len(batch) < max_items:
            batch.append(self._queue.popleft())
        _stamp_batch(batch, now)
        return batch

    def next_ready_at(self, now):
        """Earliest time anything becomes eligible, or None when empty."""
        return now if self._queue else None


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


class TsnScheduler:
    """An 802.1Qbv time-aware scheduler over per-class FIFO queues.

    Higher traffic classes drain first within an open window, giving
    time-sensitive packets strict priority over best effort even when both
    gates are open.
    """

    name = "tsn"

    def __init__(self, gcl=None):
        self.gcl = gcl or GateControlList.default()
        self._queues = {}

    def __len__(self):
        return sum(len(queue) for queue in self._queues.values())

    def push(self, item, traffic_class=CLASS_BEST_EFFORT, now=0):
        _stamp(item, "sched_enqueue", now)
        self._queues.setdefault(traffic_class, deque()).append(item)

    def pop_ready(self, now, max_items):
        batch = []
        for traffic_class in sorted(self._queues, reverse=True):
            queue = self._queues[traffic_class]
            if not queue or not self.gcl.is_open(traffic_class, now):
                continue
            while queue and len(batch) < max_items:
                batch.append(queue.popleft())
            if len(batch) >= max_items:
                break
        _stamp_batch(batch, now)
        return batch

    def next_ready_at(self, now):
        earliest = None
        for traffic_class, queue in self._queues.items():
            if not queue:
                continue
            ready = self.gcl.next_open_at(traffic_class, now)
            if earliest is None or ready < earliest:
                earliest = ready
        return earliest
