"""Span-based message-lifecycle tracing.

The data model has two levels:

* a **root** :class:`MessageTrace` per emitted message (created by
  :meth:`LifecycleTracer.begin` from ``Session.emit_data``), covering
  emit -> sink consume;
* one **child** :class:`MessageTrace` per wire packet of the message
  (created by :meth:`LifecycleTracer.fork` from the egress binding's
  ``_build_packet``), carrying the per-stage stamps recorded along the
  datapath: scheduler, tx stack, NIC, link/switch, rx, dispatch.

:class:`MessageTrace` subclasses ``dict`` so every existing stamp site in
the stack — ``trace["runtime_tx"] = now``, ``packet.stamp(key, now)`` —
works unchanged whether it holds a legacy plain-dict trace or a tracer
record.  Stamps never schedule events or draw from the rng, so enabling
tracing does not perturb simulated results (the determinism contract),
and every hook is guarded by an attribute-load + ``None``-check so runs
with tracing off execute identical Python (the no-op-hook guarantee,
held by the golden corpus: tracing-off paper workloads must match their
pinned ``engine`` digests and ``schedule`` counts).

Spans are derived, not stored: each stamp closes the stage that began at
the previous stamp, so :func:`spans_of` turns a record's insertion-ordered
stamp dict into parent/child :class:`Span` objects on demand.
"""

from repro.obs.histogram import LogHistogram

#: Lifecycle states of a message record.
OPEN = "open"
DELIVERED = "delivered"
DROPPED = "dropped"
FAILED = "failed"


class MessageTrace(dict):
    """Stage-timestamp record for one message (root) or wire packet (child).

    The mapping itself is ``stamp_key -> ns``; insertion order is stage
    order.  Everything else — identity, topology, annotations, lifecycle
    state — lives in slots so the stamp dict stays exactly what the
    hot-path hook sites expect.
    """

    __slots__ = (
        "tracer", "msg_id", "parent", "children", "stream", "channel",
        "size", "datapath", "src_host", "dst", "app", "annotations",
        "state", "closed_ns", "deliveries",
    )

    def __init__(self, tracer, msg_id, *, stream=None, channel=None,
                 size=None, datapath=None, src_host=None, dst=None,
                 app=None, parent=None):
        super().__init__()
        self.tracer = tracer
        self.msg_id = msg_id
        self.parent = parent
        self.children = []
        self.stream = stream
        self.channel = channel
        self.size = size
        self.datapath = datapath
        self.src_host = src_host
        self.dst = dst
        self.app = app
        self.annotations = []
        self.state = OPEN
        self.closed_ns = None
        self.deliveries = 0

    # -- hooks called from the stack -------------------------------------------

    def annotate(self, ns, kind, detail=""):
        """Attach a timeline annotation (fault, drop, migration, ...)."""
        self.annotations.append((ns, kind, detail))

    def mark_dropped(self, ns, reason):
        """The packet (and with it the message copy) died on the wire/NIC."""
        self.annotations.append((ns, "drop", reason))
        if self.state == OPEN:
            self.state = DROPPED
            self.closed_ns = ns
        parent = self.parent
        if parent is not None and parent.state == OPEN and not parent.deliveries:
            parent.annotations.append((ns, "drop", reason))

    def finish(self, ns, sink=None):
        """A sink consumed this message; closes the root span."""
        root = self.parent or self
        if self is not root and "app_consume" not in self:
            self["app_consume"] = ns
        root.deliveries += 1
        if root.state != DELIVERED:
            root.state = DELIVERED
            root.closed_ns = ns
            root["app_consume"] = ns

    @property
    def end_ns(self):
        """Where this record's root-level span closes."""
        if self.closed_ns is not None:
            return self.closed_ns
        last = self.get("app_consume")
        if last is not None:
            return last
        return max(self.values()) if self else 0.0

    def __repr__(self):
        return "MessageTrace(#%s %s/%s %s state=%s stamps=%s)" % (
            self.msg_id, self.stream, self.channel, self.datapath,
            self.state, list(self),
        )


class Span:
    """One rendered span: a named interval on a (host, datapath) track."""

    __slots__ = ("span_id", "parent_id", "name", "start_ns", "end_ns",
                 "track", "annotations", "msg_id")

    def __init__(self, span_id, parent_id, name, start_ns, end_ns, track,
                 annotations=(), msg_id=None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.track = track
        self.annotations = list(annotations)
        self.msg_id = msg_id

    @property
    def duration_ns(self):
        return self.end_ns - self.start_ns

    def __repr__(self):
        return "Span(%s %s [%.0f..%.0f] %s)" % (
            self.span_id, self.name, self.start_ns, self.end_ns, self.track,
        )


def stage_pairs(record):
    """``(stage_name, start_ns, end_ns)`` per consecutive stamp pair.

    Each stamp closes the stage that began at the previous stamp; the
    stage is named after the stamp that closes it (``runtime_tx`` covers
    emit -> runtime pickup, ``udp_tx_done`` covers the kernel tx stack,
    ...).  Non-monotonic pairs never occur on the real paths (departure
    stamps carry future times, in order), but are clamped defensively.
    """
    stages = []
    previous_key = None
    previous_ns = None
    for key, ns in record.items():
        if previous_key is not None:
            stages.append((key, previous_ns, max(previous_ns, ns)))
        previous_key, previous_ns = key, ns
    return stages


def spans_of(record, next_id=None):
    """Render one root record (and its children) into :class:`Span` objects.

    Returns a flat list; the first span is the root (whole message), child
    packet records contribute one container span plus one span per stage.
    """
    counter = next_id or iter(range(1, 1 << 30)).__next__
    spans = []
    root_track = (record.src_host, record.datapath)
    root_id = counter()
    start = record.get("emit_ns", record.end_ns)
    spans.append(Span(
        root_id, None,
        "msg %s %s/%s" % (record.msg_id, record.stream, record.channel),
        start, record.end_ns, root_track,
        annotations=record.annotations, msg_id=record.msg_id,
    ))
    for child in record.children:
        child_id = counter()
        child_start = child.get("emit_ns", start)
        spans.append(Span(
            child_id, root_id,
            "pkt %s -> %s" % (child.msg_id, child.dst),
            child_start, child.end_ns, (child.src_host, child.datapath),
            annotations=child.annotations, msg_id=child.msg_id,
        ))
        for name, stage_start, stage_end in stage_pairs(child):
            spans.append(Span(
                counter(), child_id, name, stage_start, stage_end,
                (child.src_host, child.datapath), msg_id=child.msg_id,
            ))
    return spans


class LifecycleTracer:
    """Collects message records, fault timeline events, and histograms.

    One tracer is shared by every runtime of a deployment (pass it via
    ``RuntimeConfig(tracer=...)``); it is intentionally engine-agnostic —
    all inputs arrive through the hook methods below.
    """

    def __init__(self, histogram_lo=10.0, histogram_hi=1e9,
                 buckets_per_decade=8):
        self.roots = []
        self.events = []      # (ns, kind, detail dict) timeline entries
        self._next_msg = 0
        self._hist_args = (histogram_lo, histogram_hi, buckets_per_decade)
        self.engine_observers = {}

    # -- record creation -------------------------------------------------------

    def begin(self, ns, *, stream=None, channel=None, size=None,
              datapath=None, host=None, app=None):
        """Open the root record for one emitted message."""
        self._next_msg += 1
        record = MessageTrace(
            self, self._next_msg, stream=stream, channel=channel, size=size,
            datapath=datapath, src_host=host, app=app,
        )
        record["emit_ns"] = ns
        self.roots.append(record)
        return record

    def fork(self, root, ns, datapath, dst):
        """Open a child record for one wire packet of ``root``."""
        child = MessageTrace(
            self, "%s.%d" % (root.msg_id, len(root.children) + 1),
            stream=root.stream, channel=root.channel, size=root.size,
            datapath=datapath, src_host=root.src_host, dst=dst,
            app=root.app, parent=root,
        )
        emit_ns = root.get("emit_ns")
        if emit_ns is not None:
            child["emit_ns"] = emit_ns
        root.children.append(child)
        return child

    # -- fault / failover timeline ---------------------------------------------

    def event(self, ns, kind, **detail):
        """Record a deployment-level timeline event (rendered as an
        instant in the Chrome trace)."""
        self.events.append((ns, kind, detail))

    def datapath_failed(self, ns, host, datapath, reason=""):
        """A datapath binding failed: close every open record still bound
        to it with a ``failover`` annotation (its in-flight copies are
        lost with the driver; the re-mapped stream's next messages will
        carry the survivor's name)."""
        self.event(ns, "datapath_failed", host=host, datapath=datapath,
                   reason=reason)
        for record in self.roots:
            if (record.state == OPEN and record.src_host == host
                    and record.datapath == datapath):
                record.annotate(ns, "failover", reason or "datapath failed")
                record.state = FAILED
                record.closed_ns = ns

    def datapath_restored(self, ns, host, datapath):
        self.event(ns, "datapath_restored", host=host, datapath=datapath)

    def failover_remapped(self, ns, host, datapath, remapped, stranded,
                          migrated):
        """The health monitor executed a re-map after detection."""
        self.event(
            ns, "failover_remap", host=host, datapath=datapath,
            remapped=len(remapped), stranded=len(stranded),
            migrated=migrated,
        )

    # -- derived views ---------------------------------------------------------

    def spans(self):
        """Every record rendered to :class:`Span` objects, in emit order."""
        counter = iter(range(1, 1 << 30)).__next__
        spans = []
        for record in self.roots:
            spans.extend(spans_of(record, next_id=counter))
        return spans

    def stage_histograms(self):
        """``{stage_name: LogHistogram}`` over all packet records, plus an
        ``e2e`` histogram of emit -> consume for delivered messages."""
        lo, hi, bpd = self._hist_args
        histograms = {}

        def hist(name):
            histogram = histograms.get(name)
            if histogram is None:
                histogram = histograms[name] = LogHistogram(lo, hi, bpd)
            return histogram

        for record in self.roots:
            if record.state == DELIVERED and "emit_ns" in record:
                hist("e2e").record(record.end_ns - record["emit_ns"])
            for child in record.children:
                for name, start, end in stage_pairs(child):
                    hist(name).record(end - start)
        return histograms

    def delivered(self):
        return [r for r in self.roots if r.state == DELIVERED]

    def summary(self):
        """Headline counts, handy for reports and assertions."""
        states = {}
        for record in self.roots:
            states[record.state] = states.get(record.state, 0) + 1
        return {
            "messages": len(self.roots),
            "states": states,
            "events": len(self.events),
            "packets": sum(len(r.children) for r in self.roots),
        }

    # -- engine hook -----------------------------------------------------------

    def attach_engine(self, sim, bucket_ns=50_000.0, label="sim"):
        """Install an :class:`EngineObserver` on ``sim`` (the engine then
        runs its observed loop; events/sec density lands in the Chrome
        trace as a counter track).  Returns the observer."""
        observer = EngineObserver(bucket_ns=bucket_ns)
        sim.observer = observer
        self.engine_observers[label] = observer
        return observer


class EngineObserver:
    """Counts executed events per virtual-time bucket.

    Installed via ``sim.observer``; the engine calls :meth:`on_event` once
    per executed event, only when an observer is present — the unobserved
    loops never see it.
    """

    __slots__ = ("bucket_ns", "counts", "events")

    def __init__(self, bucket_ns=50_000.0):
        self.bucket_ns = bucket_ns
        self.counts = {}
        self.events = 0

    def on_event(self, now):
        self.events += 1
        bucket = int(now // self.bucket_ns)
        counts = self.counts
        counts[bucket] = counts.get(bucket, 0) + 1

    def density(self):
        """``(bucket_start_ns, events)`` pairs in time order."""
        return [
            (bucket * self.bucket_ns, count)
            for bucket, count in sorted(self.counts.items())
        ]
