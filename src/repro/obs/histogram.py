"""Fixed-bucket log-scale histograms for latency aggregation.

The stock :class:`repro.simnet.Tally` keeps every sample so percentiles
are exact; that is fine for a 10-50k-sample benchmark series but wrong for
an always-on tracer that may observe millions of stage latencies.  A
:class:`LogHistogram` holds a fixed number of geometrically spaced buckets
— memory is bounded by construction, percentiles are approximate within
one bucket's relative width (``10^(1/buckets_per_decade)``).
"""

import math
from bisect import bisect_left


class LogHistogram:
    """A bounded-memory histogram with geometrically spaced buckets.

    ``lo``/``hi`` bound the expected value range (values outside land in
    underflow/overflow buckets, never lost); ``buckets_per_decade``
    controls resolution: 8 per decade means neighbouring bucket edges are
    ~33% apart, plenty for latency work spanning ns to seconds.
    """

    __slots__ = ("edges", "counts", "count", "total", "minimum", "maximum",
                 "_cumulative")

    def __init__(self, lo=10.0, hi=1e9, buckets_per_decade=8):
        if lo <= 0 or hi <= lo:
            raise ValueError("need 0 < lo < hi, got lo=%r hi=%r" % (lo, hi))
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        decades = math.log10(hi / lo)
        steps = max(1, int(math.ceil(decades * buckets_per_decade)))
        ratio = 10.0 ** (1.0 / buckets_per_decade)
        self.edges = [lo * ratio ** i for i in range(steps + 1)]
        # counts[i] covers (edges[i-1], edges[i]]; counts[0] additionally
        # absorbs everything <= lo and counts[-1] is the overflow bucket
        self.counts = [0] * (steps + 2)
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None
        # lazily built running-total view over counts; every mutation
        # (record/record_many/merge) drops it
        self._cumulative = None

    def record(self, value):
        self.counts[bisect_left(self.edges, value)] += 1
        self.count += 1
        self.total += value
        self._cumulative = None
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    def record_many(self, value, weight):
        """Record ``weight`` identical samples in O(1).

        The fluid fidelity tier's aggregates use this: one cold-flow
        arrival stands for ``weight`` subscribers, so per-message work
        stays independent of the modelled population.
        """
        if weight <= 0:
            if weight == 0:
                return
            raise ValueError("weight must be >= 0, got %r" % (weight,))
        self.counts[bisect_left(self.edges, value)] += weight
        self.count += weight
        self.total += value * weight
        self._cumulative = None
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value

    @property
    def mean(self):
        return self.total / self.count if self.count else 0.0

    def _cumulative_view(self):
        cumulative = self._cumulative
        if cumulative is None:
            running = 0
            cumulative = []
            append = cumulative.append
            for bucket_count in self.counts:
                running += bucket_count
                append(running)
            self._cumulative = cumulative
        return cumulative

    def percentile(self, p):
        """Approximate percentile: linear interpolation inside the bucket
        the rank falls into, clamped to the observed min/max.

        Rank lookup bisects a cached running-total view of the buckets
        (rebuilt only after a mutation), so SLO evaluation querying many
        percentiles over a million-sample histogram does one O(buckets)
        pass instead of one per call.  Result values are bit-identical to
        the original linear scan — same bucket selection, same
        interpolation arithmetic (see the regression test).
        """
        if not self.count:
            return 0.0
        if p <= 0:
            return self.minimum
        if p >= 100:
            return self.maximum
        rank = (p / 100.0) * self.count
        cumulative = self._cumulative_view()
        # the scan stopped at the first bucket where the running total
        # reached rank; bisect_left finds exactly that index (a bucket the
        # running total skips over is empty and can never be leftmost)
        index = bisect_left(cumulative, rank)
        if index >= len(self.counts):
            return self.maximum
        bucket_count = self.counts[index]
        seen = cumulative[index - 1] if index else 0
        edges = self.edges
        # bucket bounds: underflow/overflow use the observed extremes
        low = edges[index - 1] if index >= 1 else self.minimum
        high = edges[index] if index < len(edges) else self.maximum
        low = max(low, self.minimum)
        high = min(high, self.maximum)
        frac = (rank - seen) / bucket_count
        return low + (high - low) * frac

    def _percentile_scan(self, p):
        """The pre-cache linear-scan percentile, kept as the oracle the
        cached path is regression-tested against (identical results)."""
        if not self.count:
            return 0.0
        if p <= 0:
            return self.minimum
        if p >= 100:
            return self.maximum
        rank = (p / 100.0) * self.count
        edges = self.edges
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if seen + bucket_count >= rank:
                low = edges[index - 1] if index >= 1 else self.minimum
                high = edges[index] if index < len(edges) else self.maximum
                low = max(low, self.minimum)
                high = min(high, self.maximum)
                frac = (rank - seen) / bucket_count
                return low + (high - low) * frac
            seen += bucket_count
        return self.maximum

    def merge(self, other):
        """Accumulate ``other`` into this histogram (same bucket layout)."""
        if other.edges != self.edges:
            raise ValueError("cannot merge histograms with different buckets")
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.count += other.count
        self.total += other.total
        self._cumulative = None
        if other.minimum is not None:
            if self.minimum is None or other.minimum < self.minimum:
                self.minimum = other.minimum
        if other.maximum is not None:
            if self.maximum is None or other.maximum > self.maximum:
                self.maximum = other.maximum
        return self

    @classmethod
    def merged(cls, histograms):
        """A fresh histogram accumulating ``histograms`` (same layout).

        The window measurement layer folds per-window histograms into one
        stable-region aggregate with this; the inputs are left untouched.
        Raises ``ValueError`` on an empty iterable or mismatched bucket
        layouts — silently merging nothing (or the wrong buckets) would
        fabricate a statistic.
        """
        histograms = list(histograms)
        if not histograms:
            raise ValueError("cannot merge zero histograms")
        first = histograms[0]
        out = cls.__new__(cls)
        out.edges = list(first.edges)
        out.counts = [0] * len(first.counts)
        out.count = 0
        out.total = 0.0
        out.minimum = None
        out.maximum = None
        out._cumulative = None
        for histogram in histograms:
            out.merge(histogram)
        return out

    def cumulative_buckets(self):
        """``(upper_edge, cumulative_count)`` pairs, Prometheus-style.

        The final pair has ``upper_edge = inf`` and carries the total
        count; the underflow bucket folds into the first finite edge.
        """
        pairs = []
        running = 0
        for index, edge in enumerate(self.edges):
            running += self.counts[index]
            pairs.append((edge, running))
        pairs.append((math.inf, self.count))
        return pairs

    def to_dict(self):
        """A JSON-friendly snapshot (non-empty buckets only)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": [
                [self.edges[i] if i < len(self.edges) else None, c]
                for i, c in enumerate(self.counts)
                if c
            ],
        }

    def __repr__(self):
        return "LogHistogram(n=%d, mean=%.1f, p99=%.1f)" % (
            self.count, self.mean, self.percentile(99),
        )


def latency_block(hist):
    """The JSON latency summary scenario and fan-out metrics report."""
    return {
        "count": hist.count,
        "mean_ns": hist.mean,
        "p50_ns": hist.percentile(50),
        "p99_ns": hist.percentile(99),
        "p999_ns": hist.percentile(99.9),
        "max_ns": hist.maximum,
        "histogram": hist.to_dict(),
    }


def gap_block(deliveries):
    """Median (nominal) and maximum (blackout) inter-delivery gap."""
    gaps = sorted(b - a for a, b in zip(deliveries, deliveries[1:]))
    if not gaps:
        return {"nominal_ns": 0.0, "blackout_ns": 0.0}
    return {"nominal_ns": gaps[len(gaps) // 2], "blackout_ns": gaps[-1]}
