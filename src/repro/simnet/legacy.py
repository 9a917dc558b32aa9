"""The pre-overhaul event loop, kept as an independent reference engine.

This module preserves the original object-per-event :class:`LegacySimulator`
so that the differential oracle (:mod:`repro.validate.differential`) and
the golden-trace tests can run the *same* workloads, on the same
application stack, through two independently written event loops and
compare simulated results: the fast engine must produce bit-identical
``(now, executed, failures)`` and results for identical seeds, which is
only provable against an independent implementation.

The API surface matches :class:`repro.simnet.Simulator` (including the
``schedule_cancellable`` / ``stats`` extensions) so the two are drop-in
interchangeable via ``Testbed(..., sim=...)``.  Only the event loop
differs: the application layers run the one stack either way.  Do not use
this engine for new code; it exists to notarize traces.
"""

import heapq
import itertools
import random

from repro.simnet.errors import SimulationError
from repro.simnet.process import Process


class LegacyEventHandle:
    """A cancellable reference to a scheduled callback (one per event)."""

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time, seq, fn, args):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self):
        """Prevent the callback from running.  Safe to call repeatedly."""
        self.cancelled = True

    def __lt__(self, other):
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq


class LegacySimulator:
    """The original deterministic DES loop: a heap of EventHandle objects.

    Every scheduled event allocates an :class:`LegacyEventHandle`, and every
    heap sift runs the Python-level ``__lt__`` above — the costs the
    overhauled engine removes.
    """

    def __init__(self, seed=0):
        self._now = 0
        self._heap = []
        self._seq = 0
        self._executed = 0
        self.rng = random.Random(seed)
        #: the simulation's id source (see :attr:`Simulator.ids`)
        self.ids = itertools.count(1)
        #: (process_name, exception) for every process that died with an
        #: unhandled exception — checked by tests so failures cannot pass
        #: silently.
        self.failures = []

    @property
    def now(self):
        """Current virtual time in nanoseconds."""
        return self._now

    def schedule(self, delay, fn, *args):
        """Run ``fn(*args)`` after ``delay`` ns of virtual time."""
        if delay < 0:
            raise SimulationError("cannot schedule in the past (delay=%r)" % (delay,))
        self._seq += 1
        handle = LegacyEventHandle(self._now + delay, self._seq, fn, args)
        heapq.heappush(self._heap, handle)
        return handle

    # The legacy engine makes no fast/cancellable distinction: everything is
    # cancellable, so the new-API names alias the plain scheduling calls.
    schedule_cancellable = schedule

    def schedule_at(self, time, fn, *args):
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        delay = time - self._now
        if -1e-6 < delay < 0:
            delay = 0
        return self.schedule(delay, fn, *args)

    schedule_cancellable_at = schedule_at

    def process(self, generator, name=None):
        """Start a cooperative process; see :mod:`repro.simnet.process`."""
        return Process(self, generator, name=name)

    def run(self, until=None):
        """Execute events until the heap drains or ``until`` ns is reached.

        Returns the number of events executed.
        """
        executed = 0
        heap = self._heap
        while heap:
            handle = heap[0]
            if handle.cancelled:
                heapq.heappop(heap)
                continue
            if until is not None and handle.time > until:
                self._now = until
                self._executed += executed
                return executed
            heapq.heappop(heap)
            self._now = handle.time
            handle.fn(*handle.args)
            executed += 1
        if until is not None and until > self._now:
            self._now = until
        self._executed += executed
        return executed

    def step(self):
        """Execute exactly one pending event; return False if none remain."""
        heap = self._heap
        while heap:
            handle = heapq.heappop(heap)
            if handle.cancelled:
                continue
            self._now = handle.time
            handle.fn(*handle.args)
            self._executed += 1
            return True
        return False

    def peek(self):
        """Time of the next pending event, or ``None`` when idle."""
        heap = self._heap
        while heap and heap[0].cancelled:
            heapq.heappop(heap)
        return heap[0].time if heap else None

    def stats(self):
        """The same counters as :meth:`repro.simnet.Simulator.stats`.

        The legacy engine has no zero-delay lane and never purges, so those
        entries are structurally zero.  Nor does it fuse steps: every
        executed event was ``scheduled`` first.
        """
        return {
            "engine": "legacy",
            "events_executed": self._executed,
            "scheduled": self._seq,
            "heap_size": len(self._heap),
            "lane_size": 0,
            "peak_heap": 0,
            "cancelled_pending": 0,
            "cancelled_purged": 0,
        }

