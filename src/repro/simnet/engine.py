"""The event loop at the heart of the simulation kernel.

A :class:`Simulator` owns virtual time (nanoseconds) and the pending-event
structures.  Everything else in the repository — NICs, switches, datapath
plugins, the INSANE runtime — is expressed either as plain callbacks
scheduled here or as generator-based :class:`~repro.simnet.process.Process`
objects.

The loop is the hottest code in the repository (every simulated packet costs
dozens of events), so the common case is kept allocation-free:

* :meth:`Simulator.schedule` stores plain ``(time, seq, fn, args)`` tuples
  on the heap — tuple ordering is resolved in C, with no per-event handle
  object and no Python-level ``__lt__`` during heap sifts.  Only
  :meth:`Simulator.schedule_cancellable` allocates an :class:`EventHandle`,
  for the rare timer that may be cancelled (retransmission timers, parked
  polling-thread wakeups).
* Zero-delay events — the bulk of the traffic: store hand-offs, signal
  drains, process starts — bypass the heap entirely through a FIFO *lane*
  (a deque append/popleft per event).  Lane entries carry the same global
  sequence numbers as heap entries, so execution order is bit-identical to
  a pure-heap engine: see :class:`repro.simnet.legacy.LegacySimulator`,
  which runs the same stack as the independent reference, and the
  golden-trace tests.
* Cancelled timers are dropped lazily; when they exceed half the heap the
  heap is compacted in place, keeping ``len(_heap)`` bounded under timer
  churn (e.g. a retransmit timer cancelled per delivered packet).

Determinism contract: with a fixed seed, event execution order is a pure
function of the sequence of ``schedule*`` calls — same seed, same code ⇒
bit-identical simulated timestamps, results, and rng stream.
"""

import itertools
import random
from collections import deque
from heapq import heapify, heappop, heappush

from repro.simnet.errors import SimulationError

#: never compact below this many cancelled entries (small heaps are cheap
#: to scan lazily; compaction would thrash).
_COMPACT_MIN = 64

#: absolute delays below this (ns) are float-arithmetic dust, not genuine
#: attempts to schedule in the past — ``schedule_at`` clamps them to zero.
_PAST_EPSILON_NS = 1e-6


class EventHandle:
    """A cancellable reference to a callback scheduled on the heap.

    Only produced by :meth:`Simulator.schedule_cancellable`; the plain
    :meth:`Simulator.schedule` fast path does not allocate handles.
    """

    __slots__ = ("sim", "fn", "args", "cancelled", "pending")

    def __init__(self, sim, fn, args):
        self.sim = sim
        self.fn = fn
        self.args = args
        self.cancelled = False
        #: True while the handle's heap entry exists and has neither fired
        #: nor been purged.  ``_cancelled`` counts exactly the handles with
        #: ``cancelled and pending`` — cancelling a timer that already fired
        #: must not inflate the counter (it has no heap entry to purge).
        self.pending = True

    def cancel(self):
        """Prevent the callback from running.  Safe to call repeatedly,
        including after the timer has already fired (a no-op then)."""
        if self.cancelled:
            return
        self.cancelled = True
        if not self.pending:
            return
        sim = self.sim
        sim._cancelled += 1
        if sim._cancelled >= _COMPACT_MIN and sim._cancelled * 2 > len(sim._heap):
            sim._compact()


class PeriodicHandle:
    """A self-rearming aggregate event (fluid-tier drains, batched stats).

    The callback runs every ``interval_ns`` of virtual time and returns a
    truthy value to stay armed; a falsy return parks the handle (the heap
    entry is *not* re-created, so an idle periodic never keeps an
    unbounded :meth:`Simulator.run` alive).  :meth:`kick` re-arms a parked
    handle — producers call it when new work arrives; :meth:`cancel`
    stops the cycle for good.
    """

    __slots__ = ("sim", "interval_ns", "fn", "cancelled", "_armed")

    def __init__(self, sim, interval_ns, fn):
        if interval_ns <= 0:
            raise SimulationError(
                "periodic interval must be > 0, got %r" % (interval_ns,)
            )
        self.sim = sim
        self.interval_ns = interval_ns
        self.fn = fn
        self.cancelled = False
        self._armed = False

    def kick(self, delay=None):
        """Arm the next tick (no-op while already armed or cancelled)."""
        if self.cancelled or self._armed:
            return
        self._armed = True
        self.sim.schedule(
            self.interval_ns if delay is None else delay, self._fire
        )

    def _fire(self):
        self._armed = False
        if self.cancelled:
            return
        if self.fn():
            self.kick()

    def cancel(self):
        """Stop the cycle; a pending tick becomes a no-op."""
        self.cancelled = True


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Seed for the simulation-owned :class:`random.Random`.  All stochastic
        models (latency jitter, workload generators) must draw from
        :attr:`rng` so that a run is reproducible from its seed alone.
    """

    #: Optional observer (see :class:`repro.obs.EngineObserver`) notified
    #: once per executed event via ``on_event(now)``.  A class attribute
    #: checked once per :meth:`run` call — with no observer installed the
    #: hand-optimized loops below run untouched, so observability costs
    #: nothing when off.
    observer = None

    def __init__(self, seed=0):
        #: current virtual time in nanoseconds — a plain attribute, not a
        #: property: it is read on every schedule/cost call in the stack.
        self.now = 0
        #: timed events: ``(time, seq, fn, args)`` tuples, or
        #: ``(time, seq, None, EventHandle)`` for cancellable timers.  ``seq``
        #: is unique, so tuple comparison never reaches ``fn``.
        self._heap = []
        #: zero-delay events at the current instant: ``(seq, fn, args)``.
        #: Invariant: virtual time never advances while the lane is occupied,
        #: so every lane entry fires at ``self.now``.
        self._lane = deque()
        self._seq = 0
        self._cancelled = 0   # cancelled handles still sitting in the heap
        self._executed = 0
        self._peak_heap = 0
        self._purged = 0
        self.rng = random.Random(seed)
        #: the simulation's id source: packet seqs, unnamed session app
        #: ids, sink endpoints, qtokens and containers all draw from it,
        #: so two simulators in one process never see each other's ids.
        self.ids = itertools.count(1)
        #: (process_name, exception) for every process that died with an
        #: unhandled exception — checked by tests so failures cannot pass
        #: silently.
        self.failures = []

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay, fn, *args):
        """Run ``fn(*args)`` after ``delay`` ns of virtual time.

        This is the fire-and-forget fast path: no handle is allocated and
        nothing is returned.  Use :meth:`schedule_cancellable` for the rare
        timer that may need cancelling.
        """
        if delay <= 0:
            if delay < 0:
                raise SimulationError(
                    "cannot schedule in the past (delay=%r)" % (delay,)
                )
            self._seq = seq = self._seq + 1
            self._lane.append((seq, fn, args))
            return
        self._seq = seq = self._seq + 1
        heap = self._heap
        heappush(heap, (self.now + delay, seq, fn, args))
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def schedule_abs(self, time, fn, *args):
        """Run ``fn(*args)`` at the exact absolute instant ``time`` ns.

        ``schedule(time - now)`` re-rounds the instant through
        ``now + delay``, which is not bit-identical for every float.
        Fused hot-path hops (link propagation + NIC rx DMA, coalesced
        IPC-plus-processing sleeps) use this to land on precisely the
        timestamp the unfused multi-event schedule would have produced.
        An event at the current instant goes on the heap, not the lane:
        the run loop's time-and-seq tie check already interleaves it
        correctly with pending zero-delay work.
        """
        now = self.now
        if time < now:
            if now - time < _PAST_EPSILON_NS:
                time = now
            else:
                raise SimulationError(
                    "cannot schedule in the past (time=%r < now=%r)"
                    % (time, now)
                )
        self._seq = seq = self._seq + 1
        heap = self._heap
        heappush(heap, (time, seq, fn, args))
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)

    def schedule_cancellable(self, delay, fn, *args):
        """Like :meth:`schedule`, but returns a cancellable :class:`EventHandle`."""
        if delay < 0:
            raise SimulationError("cannot schedule in the past (delay=%r)" % (delay,))
        self._seq = seq = self._seq + 1
        handle = EventHandle(self, fn, args)
        heap = self._heap
        heappush(heap, (self.now + delay, seq, None, handle))
        if len(heap) > self._peak_heap:
            self._peak_heap = len(heap)
        return handle

    def schedule_at(self, time, fn, *args):
        """Run ``fn(*args)`` at absolute virtual time ``time``.

        A ``time`` computed by float arithmetic may land a hair before
        ``now`` (e.g. ``now + a - a``); deltas smaller than a millionth of a
        nanosecond are clamped to "now" rather than rejected.  Genuinely
        past times still raise :class:`SimulationError`.
        """
        delay = time - self.now
        if -_PAST_EPSILON_NS < delay < 0:
            delay = 0
        return self.schedule(delay, fn, *args)

    def schedule_cancellable_at(self, time, fn, *args):
        """Cancellable variant of :meth:`schedule_at`."""
        delay = time - self.now
        if -_PAST_EPSILON_NS < delay < 0:
            delay = 0
        return self.schedule_cancellable(delay, fn, *args)

    def schedule_periodic(self, interval_ns, fn, start=False):
        """A :class:`PeriodicHandle` running ``fn()`` every ``interval_ns``.

        The handle starts parked unless ``start`` is true; ``fn`` returning
        falsy parks it again (see :class:`PeriodicHandle`).  This is the
        engine-side aggregate event used by the fluid fidelity tier: one
        heap entry per (host, datapath) aggregate, regardless of how many
        flows it models.
        """
        handle = PeriodicHandle(self, interval_ns, fn)
        if start:
            handle.kick()
        return handle

    def process(self, generator, name=None):
        """Start a cooperative process; see :mod:`repro.simnet.process`."""
        from repro.simnet.process import Process

        return Process(self, generator, name=name)

    # -- execution --------------------------------------------------------

    def run(self, until=None):
        """Execute events until everything drains or ``until`` ns is reached.

        Returns the number of events executed.
        """
        if self.observer is not None:
            return self._run_observed(until)
        executed = 0
        # Fused paths bump _executed directly for the events they elide;
        # returning the _executed delta keeps the return value equal to
        # stats()["events_executed"] growth either way.
        start_executed = self._executed
        heap = self._heap
        lane = self._lane
        lane_pop = lane.popleft
        if until is None:
            # Unbounded drain — the common case (every benchmark and most
            # tests): no per-event deadline check, pop-then-test instead of
            # peek-then-pop.
            while True:
                if lane:
                    if heap:
                        entry = heap[0]
                        if entry[0] == self.now and entry[1] < lane[0][0]:
                            heappop(heap)
                            fn = entry[2]
                            if fn is None:
                                handle = entry[3]
                                if handle.cancelled:
                                    handle.pending = False
                                    self._cancelled -= 1
                                    self._purged += 1
                                    continue
                                handle.pending = False
                                handle.fn(*handle.args)
                            else:
                                fn(*entry[3])
                            executed += 1
                            continue
                    entry = lane_pop()
                    entry[1](*entry[2])
                    executed += 1
                    continue
                if not heap:
                    break
                entry = heappop(heap)
                fn = entry[2]
                if fn is None:
                    handle = entry[3]
                    if handle.cancelled:
                        handle.pending = False
                        self._cancelled -= 1
                        self._purged += 1
                        continue
                    handle.pending = False
                    self.now = entry[0]
                    handle.fn(*handle.args)
                else:
                    self.now = entry[0]
                    fn(*entry[3])
                executed += 1
            self._executed += executed
            return self._executed - start_executed
        # Bounded drain: peek at the heap head and stop before the first
        # event past ``until``.
        while True:
            if lane:
                # A heap event at the current instant that was scheduled
                # before the lane head must run first (global seq order).
                if heap:
                    entry = heap[0]
                    if entry[0] == self.now and entry[1] < lane[0][0]:
                        heappop(heap)
                        fn = entry[2]
                        if fn is None:
                            handle = entry[3]
                            if handle.cancelled:
                                handle.pending = False
                                self._cancelled -= 1
                                self._purged += 1
                                continue
                            handle.pending = False
                            handle.fn(*handle.args)
                        else:
                            fn(*entry[3])
                        executed += 1
                        continue
                entry = lane_pop()
                entry[1](*entry[2])
                executed += 1
                continue
            if not heap:
                break
            entry = heap[0]
            fn = entry[2]
            if fn is None and entry[3].cancelled:
                heappop(heap)
                entry[3].pending = False
                self._cancelled -= 1
                self._purged += 1
                continue
            time = entry[0]
            if time > until:
                self.now = until
                self._executed += executed
                return self._executed - start_executed
            heappop(heap)
            self.now = time
            if fn is None:
                handle = entry[3]
                handle.pending = False
                handle.fn(*handle.args)
            else:
                fn(*entry[3])
            executed += 1
        if until > self.now:
            self.now = until
        self._executed += executed
        return self._executed - start_executed

    def _run_observed(self, until):
        """The observed drain loop: :meth:`step` plus an ``on_event``
        callback per event.  Deliberately separate from :meth:`run` so the
        unobserved fast paths stay branch-free; event *order* is identical
        (``step`` shares the lane/heap arbitration logic)."""
        on_event = self.observer.on_event
        step = self.step
        executed = 0
        if until is None:
            while step():
                executed += 1
                on_event(self.now)
        else:
            while True:
                upcoming = self.peek()
                if upcoming is None or upcoming > until:
                    break
                if not step():
                    break
                executed += 1
                on_event(self.now)
            if until > self.now:
                self.now = until
        return executed

    def step(self):
        """Execute exactly one pending event; return False if none remain."""
        heap = self._heap
        lane = self._lane
        while True:
            if lane:
                if heap:
                    entry = heap[0]
                    if entry[0] == self.now and entry[1] < lane[0][0]:
                        heappop(heap)
                        fn = entry[2]
                        if fn is None:
                            handle = entry[3]
                            if handle.cancelled:
                                handle.pending = False
                                self._cancelled -= 1
                                self._purged += 1
                                continue
                            handle.pending = False
                            handle.fn(*handle.args)
                        else:
                            fn(*entry[3])
                        self._executed += 1
                        return True
                entry = lane.popleft()
                entry[1](*entry[2])
                self._executed += 1
                return True
            if not heap:
                return False
            entry = heappop(heap)
            fn = entry[2]
            if fn is None:
                handle = entry[3]
                if handle.cancelled:
                    handle.pending = False
                    self._cancelled -= 1
                    self._purged += 1
                    continue
                handle.pending = False
                self.now = entry[0]
                handle.fn(*handle.args)
            else:
                self.now = entry[0]
                fn(*entry[3])
            self._executed += 1
            return True

    def peek(self):
        """Time of the next pending event, or ``None`` when idle."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is None and entry[3].cancelled:
                heappop(heap)
                entry[3].pending = False
                self._cancelled -= 1
                self._purged += 1
                continue
            break
        if self._lane:
            return self.now
        return heap[0][0] if heap else None

    # -- maintenance ------------------------------------------------------

    def _compact(self):
        """Drop cancelled timers and re-heapify (in place: ``run`` holds a
        reference to the list).

        An entry is purgeable iff its *handle* is cancelled — regardless of
        what the payload slot holds, so a payload-carrying cancellable
        entry cannot survive its own cancellation.  Bookkeeping is per
        purged entry (never a blanket reset): each drop decrements the
        cancelled counter exactly once, keeping
        ``stats()["cancelled_pending"]`` truthful even when cancelled
        handles have already left the heap through another path.
        """
        heap = self._heap
        kept = []
        purged = 0
        for entry in heap:
            handle = entry[3]
            if isinstance(handle, EventHandle) and handle.cancelled:
                handle.pending = False
                purged += 1
            else:
                kept.append(entry)
        heap[:] = kept
        heapify(heap)
        self._purged += purged
        self._cancelled -= purged

    def stats(self):
        """Counters for perf diagnosis, surfaced in benchmark reports.

        ``scheduled`` counts scheduler round trips (heap pushes and lane
        appends); a fused step is executed without one.
        """
        return {
            "engine": "fast",
            "events_executed": self._executed,
            "scheduled": self._seq,
            "heap_size": len(self._heap),
            "lane_size": len(self._lane),
            "peak_heap": self._peak_heap,
            "cancelled_pending": self._cancelled,
            "cancelled_purged": self._purged,
        }
