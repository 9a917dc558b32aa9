"""Prometheus histogram families for tracer stage latencies.

Extends the flat counter/gauge export of :mod:`repro.core.metrics` with
cumulative histogram families in the text exposition format:

    # HELP insane_stage_latency_ns Per-stage message latency.
    # TYPE insane_stage_latency_ns histogram
    insane_stage_latency_ns_bucket{stage="tx_stack",le="100"} 3
    ...
    insane_stage_latency_ns_bucket{stage="tx_stack",le="+Inf"} 17
    insane_stage_latency_ns_sum{stage="tx_stack"} 12345
    insane_stage_latency_ns_count{stage="tx_stack"} 17

The ``le`` buckets come straight from :meth:`LogHistogram.
cumulative_buckets`, so they are cumulative as the format requires.
"""

import math

from repro.core.metrics import _escape


def _labels(labels):
    return ",".join(
        '%s="%s"' % (key, _escape(labels[key])) for key in sorted(labels)
    )


def _format_le(edge):
    if edge == math.inf:
        return "+Inf"
    text = "%g" % edge
    return text


def histogram_lines(name, histogram, labels=None, help_text=None):
    """Render one :class:`LogHistogram` as a Prometheus histogram family.

    ``name`` is the family name (without the ``insane_`` prefix, which is
    added here for consistency with :mod:`repro.core.metrics`).
    """
    labels = dict(labels or {})
    family = "insane_%s" % name
    lines = [
        "# HELP %s %s" % (family, _escape(help_text or name.replace("_", " "))),
        "# TYPE %s histogram" % family,
    ]
    for edge, cumulative in histogram.cumulative_buckets():
        bucket_labels = dict(labels)
        bucket_labels["le"] = _format_le(edge)
        lines.append(
            "%s_bucket{%s} %d" % (family, _labels(bucket_labels), cumulative)
        )
    suffix = "{%s}" % _labels(labels) if labels else ""
    lines.append("%s_sum%s %s" % (family, suffix, histogram.total))
    lines.append("%s_count%s %d" % (family, suffix, histogram.count))
    return lines


def tracer_lines(tracer, family="stage_latency_ns"):
    """All stage histograms of a tracer as one multi-label family.

    Uses a single family with a ``stage`` label (the format forbids
    repeating ``# TYPE`` per label set), so one scrape carries the whole
    stage-cost decomposition.
    """
    histograms = tracer.stage_histograms()
    if not histograms:
        return []
    prefix = "insane_%s" % family
    lines = [
        "# HELP %s Per-stage message lifecycle latency (ns)." % prefix,
        "# TYPE %s histogram" % prefix,
    ]
    for stage in sorted(histograms):
        histogram = histograms[stage]
        labels = {"stage": stage}
        for edge, cumulative in histogram.cumulative_buckets():
            bucket_labels = dict(labels)
            bucket_labels["le"] = _format_le(edge)
            lines.append(
                "%s_bucket{%s} %d" % (prefix, _labels(bucket_labels), cumulative)
            )
        lines.append("%s_sum{%s} %s" % (prefix, _labels(labels), histogram.total))
        lines.append("%s_count{%s} %d" % (prefix, _labels(labels), histogram.count))
    return lines
