"""Measurement primitives: counters, tallies, and rate meters.

Every benchmark series in the repository is produced by these classes, so
their statistics (mean, median, percentiles) are computed in exactly one
place.
"""

import math

from repro.simnet.errors import DegenerateWindowError


class Counter:
    """A named monotonically increasing counter.

    Bump it with ``counter.value += 1`` directly: there is no increment
    method, because an attribute store is roughly half the cost of a
    bound-method call and counters sit on every per-packet path.
    """

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def __repr__(self):
        return "Counter(%s=%d)" % (self.name, self.value)


class Tally:
    """Accumulates samples and reports summary statistics.

    Samples are kept so that medians and percentiles are exact; benchmark
    sample counts in this repository are small enough (10-50 k) that this is
    never a memory concern.
    """

    def __init__(self, name):
        self.name = name
        self.samples = []
        self._sorted = None

    def record(self, value):
        self.samples.append(value)
        self._sorted = None

    def _ordered(self):
        """The sorted view, cached between records.

        ``summary()`` asks for several percentiles per call and report
        generation walks many tallies, so re-sorting the full sample list
        on every ``percentile`` call made reporting quadratic-ish.
        """
        ordered = self._sorted
        if ordered is None:
            ordered = self._sorted = sorted(self.samples)
        return ordered

    @property
    def count(self):
        return len(self.samples)

    @property
    def total(self):
        return sum(self.samples)

    @property
    def mean(self):
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    @property
    def minimum(self):
        return min(self.samples) if self.samples else 0.0

    @property
    def maximum(self):
        return max(self.samples) if self.samples else 0.0

    @property
    def stddev(self):
        n = len(self.samples)
        if n < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(sum((s - mean) ** 2 for s in self.samples) / (n - 1))

    def percentile(self, p):
        """Exact percentile by linear interpolation (0 <= p <= 100)."""
        if not self.samples:
            return 0.0
        ordered = self._ordered()
        if len(ordered) == 1:
            return ordered[0]
        rank = (p / 100.0) * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high or ordered[low] == ordered[high]:
            return ordered[low]
        frac = rank - low
        value = ordered[low] * (1 - frac) + ordered[high] * frac
        # guard against float rounding pushing past the sample bounds
        return min(max(value, ordered[0]), ordered[-1])

    @property
    def median(self):
        return self.percentile(50)

    def summary(self):
        """A dict of the headline statistics, handy for table rows."""
        return {
            "name": self.name,
            "count": self.count,
            "mean": self.mean,
            "median": self.median,
            "p99": self.percentile(99),
            "min": self.minimum,
            "max": self.maximum,
            "stddev": self.stddev,
        }


class RateMeter:
    """Measures goodput: bytes accumulated over a virtual-time window.

    The window runs from the *start* of the first recorded sample to the
    completion of the last one.  Callers that know the first sample's own
    serialization window pass it as ``duration_ns`` so a single-message
    window still has width; without it, a single-sample window is
    *degenerate* (``first_ns == last_ns``) and the rate queries raise
    :class:`DegenerateWindowError` rather than silently reporting a
    goodput of ``0.0`` for short benchmark windows.
    """

    def __init__(self, name):
        self.name = name
        self.bytes = 0
        self.messages = 0
        self.first_ns = None
        self.last_ns = None

    def record(self, now_ns, nbytes, duration_ns=None):
        if self.first_ns is None:
            # open the window at the start of the first sample's
            # serialization, not at its completion stamp
            if duration_ns is not None and duration_ns > 0:
                self.first_ns = now_ns - duration_ns
            else:
                self.first_ns = now_ns
        self.last_ns = now_ns
        self.bytes += nbytes
        self.messages += 1

    @property
    def elapsed_ns(self):
        if self.first_ns is None or self.last_ns is None:
            return 0
        return self.last_ns - self.first_ns

    def _window(self):
        elapsed = self.elapsed_ns
        if elapsed <= 0:
            raise DegenerateWindowError(
                "rate meter %r observed %d message(s) over a zero-width "
                "window; record the first sample's serialization window "
                "via record(..., duration_ns=...)" % (self.name, self.messages)
            )
        return elapsed

    def gbps(self):
        """Goodput in gigabits per second over the observed window."""
        if not self.messages:
            return 0.0
        return (self.bytes * 8.0) / self._window()  # bits per ns == Gbps

    def mpps(self):
        """Millions of messages per second over the observed window."""
        if not self.messages:
            return 0.0
        return self.messages * 1000.0 / self._window()
