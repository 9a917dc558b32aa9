"""Fluid aggregates: a cold subscriber population folded into one object.

A :class:`FluidAggregate` stands for ``subscribers`` cold sinks of one
``(host, datapath)`` pair.  Instead of per-subscriber rings, processes
and IPC events, the aggregate keeps O(1) state and is drained by a
single periodic engine event (:meth:`Simulator.schedule_periodic`) that
parks itself when the flow goes idle — the total event cost of the cold
population is one callback per drain interval, independent of whether it
models 10 or 1,000,000 subscribers.

Two operating modes:

``piggyback``
    Some sinks on the host are packet-accurate (hot), so every message
    already crosses the wire once.  The aggregate attaches its own app
    id and registers one sink endpoint of weight ``subscribers`` with
    the absorber as its ring (``InsaneRuntime.register_sink``): the
    dispatch loop hands it each delivery token exactly once, the rx-pass
    charges the fan-out cost of the full modelled population, and the L2
    ring-pressure model sees ``weight`` rings; :meth:`close` unregisters
    the endpoint and detaches the app id.  The absorber records the
    dispatch instant and the analytic (jitter-free) IPC pickup, so the
    cold latency estimate differs from a hot sink's sample only by the
    per-sink jitter draw.  Delivered counts are *exact*: the endpoint
    weight and the hot sink list are mutated at the same simulated
    instant (inside the drain callback), so every dispatched message
    sees a consistent configuration summing to the subscriber count.

``analytic``
    No hot sinks: nothing subscribes, no packets are built, and the
    publisher's emits are mirrored into the aggregate by the driver
    (:meth:`on_emit`).  Arrivals land one calibrated one-way latency
    after each emit, and the wire crossings the DES would have simulated
    are accounted through the ``fluid_*`` counters on the NICs, links
    and datapaths (conservation: a full-DES run's ``tx_frames`` equals a
    hybrid run's ``tx_frames + fluid_tx_frames``).
"""

from repro.obs import LogHistogram

MODE_PIGGYBACK = "piggyback"
MODE_ANALYTIC = "analytic"


class FluidAbsorber:
    """Ring-duck standing in for the cold population's sink rings.

    The runtime treats it like any ring: ``try_put`` receives the
    delivery token.  It always absorbs — the aggregate's drop behaviour
    is modelled by the weighted fan-out charge upstream, not by slot
    exhaustion — and immediately returns the lent pool buffer so the
    cold population never holds memory.
    """

    __slots__ = ("aggregate", "app_id", "memory")

    def __init__(self, aggregate, app_id, memory):
        self.aggregate = aggregate
        self.app_id = app_id
        self.memory = memory

    def try_put(self, delivery):
        self.aggregate._absorb(delivery)
        self.memory.release_for(self.app_id, delivery.buffer)
        return True

    def __len__(self):
        return 0


class FluidAggregate:
    """``subscribers`` cold sinks of one channel on one host."""

    def __init__(self, runtime, key, subscribers, envelope,
                 mode=MODE_PIGGYBACK, hist=None, datapath="udp",
                 drain_interval_ns=200_000.0, wire=None, frame_bytes=0,
                 service_extra_ns=0.0, name="fluid-agg"):
        if subscribers < 1:
            raise ValueError("a fluid aggregate models >= 1 subscriber, "
                             "got %r" % (subscribers,))
        if mode not in (MODE_PIGGYBACK, MODE_ANALYTIC):
            raise ValueError("unknown fluid mode %r" % (mode,))
        self.runtime = runtime
        self.sim = runtime.sim
        self.key = key
        self.subscribers = subscribers
        self.envelope = envelope
        self.mode = mode
        self.hist = hist if hist is not None else LogHistogram()
        #: per-message cold arrival instants (one entry per message, for
        #: inter-arrival gap metrics; bounded by the message count)
        self.arrivals = []
        self.delivered = 0
        self.messages = 0
        self.drain_ticks = 0
        self.drain_interval_ns = drain_interval_ns
        self.rate_ewma_hz = 0.0
        self.first_arrival_ns = None
        self.last_arrival_ns = None
        #: attached by FidelityController; called on every drain tick
        self.controller = None
        self.closed = False
        #: analytic-mode wire path: {"tx_nic", "rx_nic", "links",
        #: "tx_datapath", "rx_datapath"} — whichever are present get the
        #: modelled crossings accounted on their fluid counters
        self.wire = wire or {}
        self.frame_bytes = frame_bytes
        #: analytic-mode latency surcharge beyond the calibrated 1-sink
        #: one-way: the receiver's fan-out service for the population
        #: (piggyback mode sees real dispatch instants and needs none)
        self.service_extra_ns = service_extra_ns
        self._pending = []  # (arrival_ns, latency_ns)
        self._rate_mark_ns = None
        self.endpoint = None
        self.handle = self.sim.schedule_periodic(drain_interval_ns,
                                                 self._drain)
        if mode == MODE_PIGGYBACK:
            runtime.memory.attach(name)
            self.absorber = FluidAbsorber(self, name, runtime.memory)
            self.endpoint = runtime.register_sink(
                key, name, datapath=datapath, ring=self.absorber,
                weight=subscribers)

    # -- arrivals ----------------------------------------------------------

    def _absorb(self, delivery):
        """Piggyback arrival: one dispatched token for the whole cold
        population, at the exact instant hot sinks are enqueued."""
        now = self.sim.now
        trace = delivery.trace
        emit = trace.get("emit_ns") if trace else None
        if emit is not None:
            # dispatch instant + jitter-free IPC pickup: what a real sink
            # would record, modulo its per-sink jitter draw
            latency = now + self.envelope.ipc_half_ns - emit
        else:
            latency = self.envelope.one_way_ns
        self._pending.append((now, latency))
        self.handle.kick()

    def on_emit(self, emit_ns):
        """Analytic arrival: the driver mirrors one publisher emit; the
        cold population receives it one calibrated one-way (plus the
        population's fan-out service) later."""
        latency = self.envelope.one_way_ns + self.service_extra_ns
        self._pending.append((emit_ns + latency, latency))
        self.handle.kick()

    # -- the single periodic event -----------------------------------------

    def _drain(self):
        """One drain tick: fold every matured arrival into the aggregate
        statistics; re-arm only while arrivals remain in flight."""
        now = self.sim.now
        if self.mode == MODE_ANALYTIC:
            ready = [entry for entry in self._pending if entry[0] <= now]
            if ready:
                self._pending = [entry for entry in self._pending
                                 if entry[0] > now]
        else:
            ready, self._pending = self._pending, []
        if ready:
            weight = self.subscribers
            hist = self.hist
            arrivals = self.arrivals
            for arrival, latency in ready:
                self.messages += 1
                self.delivered += weight
                arrivals.append(arrival)
                if self.first_arrival_ns is None:
                    self.first_arrival_ns = arrival
                self.last_arrival_ns = arrival
                hist.record_many(latency, weight)
            if self.mode == MODE_ANALYTIC:
                self._account_wire(len(ready))
        self.drain_ticks += 1
        self._update_rate(now, len(ready))
        if self.controller is not None:
            self.controller.on_tick(now, self.rate_ewma_hz)
        return bool(self._pending)

    def _update_rate(self, now, count):
        mark = self._rate_mark_ns
        self._rate_mark_ns = now
        if mark is None or now <= mark:
            return
        instant_hz = count * 1e9 / (now - mark)
        # EWMA over drain ticks: smooth enough for hysteresis, fast
        # enough to track a burst within a few intervals
        self.rate_ewma_hz += 0.3 * (instant_hz - self.rate_ewma_hz)

    def _account_wire(self, frames):
        """Account the wire crossings a full-DES run would have
        simulated for ``frames`` messages (analytic mode only)."""
        wire = self.wire
        if not wire:
            return
        byte_count = frames * self.frame_bytes
        tx_nic = wire.get("tx_nic")
        if tx_nic is not None:
            tx_nic.account_fluid_tx(frames, byte_count)
        for link in wire.get("links", ()):
            link.account_fluid(frames)
        rx_nic = wire.get("rx_nic")
        if rx_nic is not None:
            rx_nic.account_fluid_rx(frames, byte_count)
        tx_datapath = wire.get("tx_datapath")
        if tx_datapath is not None:
            tx_datapath.account_fluid(tx=frames)
        rx_datapath = wire.get("rx_datapath")
        if rx_datapath is not None:
            rx_datapath.account_fluid(rx=frames)

    # -- promotion/demotion ------------------------------------------------

    def set_subscribers(self, count):
        """Re-weight the modelled population (promotion moves subscribers
        out to real DES sinks, demotion folds them back).  In piggyback
        mode the runtime weight changes at this exact instant, so a
        caller that registers/unregisters the corresponding real sinks
        in the same callback keeps delivered counts exact."""
        if count < 1:
            raise ValueError("a fluid aggregate models >= 1 subscriber, "
                             "got %r" % (count,))
        if self.endpoint is not None:
            self.runtime.set_sink_weight(self.endpoint, count)
        self.subscribers = count

    # -- lifecycle ---------------------------------------------------------

    def flush(self):
        """Fold any still-pending arrivals in, regardless of maturity
        (end-of-run safety net; a live run drains itself empty)."""
        if self._pending:
            self._pending.sort()
            weight = self.subscribers
            for arrival, latency in self._pending:
                self.messages += 1
                self.delivered += weight
                self.arrivals.append(arrival)
                if self.first_arrival_ns is None:
                    self.first_arrival_ns = arrival
                self.last_arrival_ns = arrival
                self.hist.record_many(latency, weight)
            if self.mode == MODE_ANALYTIC:
                self._account_wire(len(self._pending))
            self._pending = []

    def close(self):
        if self.closed:
            return
        self.closed = True
        self.handle.cancel()
        if self.endpoint is not None:
            self.runtime.unregister_sink(self.endpoint)
            self.runtime.memory.detach(self.endpoint.app_id)
            self.endpoint = None

    def stats(self):
        return {
            "mode": self.mode,
            "subscribers": self.subscribers,
            "messages": self.messages,
            "delivered": self.delivered,
            "drain_ticks": self.drain_ticks,
            "drain_interval_ns": self.drain_interval_ns,
            "rate_ewma_hz": self.rate_ewma_hz,
        }
