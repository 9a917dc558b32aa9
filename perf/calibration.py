"""The noise model: a fixed pure-Python kernel that times the host.

The machines this benchmark runs on are shared.  Each CPU's speed for
the interpreter swings by tens of percent, in bursts from milliseconds
to minutes long, and the guest sees no steal time, so raw walls of the
same code are not comparable from one run to the next.  The benchmark
therefore times a small fixed kernel *while* it measures, in the same
process and so on the same CPU, and reports times in *calibrated
seconds*::

    calibrated = measured * (REFERENCE_S / harmonic_mean(nearby samples))
                 ** sensitivity

that is, how long the work would have taken on a host where one kernel
sample takes :data:`REFERENCE_S`.  "Nearby" is the samples taken during
the measured interval, or the :data:`LOCAL_SAMPLES` taken closest to it
when it is too short to hold that many.  The harmonic mean averages the
host's *speed*: a stall that stretches one sample adds time to the work
rather than slowing all of it, and is weighted so.  ``sensitivity`` is
the workload's own (see ``workloads.py``): how much of the kernel's
slowdown, on a log scale, the workload feels when the host is
contended.

The kernel is a miniature event loop (a heap of timestamped tuples,
bound methods on slotted objects, a deque lane, a generator resumed per
event): the mix of interpreter work the simulator does, so it slows down
with the simulator.  It depends on nothing in ``repro``, so no change to
the program moves it, and its working set fits in the first-level
cache, so it runs as fast between two bytecodes of a workload as on its
own.  A kernel that rebuilt a 16k-entry heap per sample followed the
simulator more closely under contention, but ran 6-13% slower inside the
workloads than alone, by an amount set by the program's own cache
footprint, which a change to the program could move.
"""

import heapq
import signal
import statistics
import time
from collections import deque

#: kernel events per sample
SAMPLE_EVENTS = 3_000
#: seconds one sample takes on an idle 2.1 GHz Xeon core (Python 3.11)
REFERENCE_S = 0.0021
#: wall seconds between two samples taken by :class:`Sampler`
PERIOD_S = 0.05
#: fewest samples a calibration factor is computed from
LOCAL_SAMPLES = 5


class _Node:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def step(self, heap, seq, now):
        self.value += 1
        heapq.heappush(heap, (now + (self.value % 7) + 1.0, seq, self.step))


def _sink(box):
    while True:
        item = yield
        box[item & 255] = item


def kernel_s(events=SAMPLE_EVENTS):
    """Host seconds for one run of the kernel."""
    start = time.perf_counter()
    heap = [(float(i), i, _Node(i).step) for i in range(64)]
    heapq.heapify(heap)
    lane = deque()
    box = {}
    sink = _sink(box)
    next(sink)
    for seq in range(64, 64 + events):
        now, _, step = heapq.heappop(heap)
        step(heap, seq, now)
        lane.append(seq)
        sink.send(lane.popleft())
    return time.perf_counter() - start


def sample(count):
    """``count`` back-to-back ``[perf_counter(), kernel seconds]``
    samples."""
    return [[time.perf_counter(), kernel_s()] for _ in range(count)]


def scale(samples, start, end):
    """How much faster than the reference host the kernel ran from
    ``start`` to ``end`` (on the samples' clock): seconds measured then,
    times this factor raised to the workload's sensitivity, are
    calibrated seconds."""
    chosen = [pair for pair in samples if start <= pair[0] <= end]
    if len(chosen) < LOCAL_SAMPLES:
        middle = (start + end) / 2.0
        chosen = sorted(samples, key=lambda pair: abs(pair[0] - middle))
        chosen = chosen[:LOCAL_SAMPLES]
    return REFERENCE_S / statistics.harmonic_mean(
        [seconds for _, seconds in chosen])


class Sampler:
    """Kernel samples taken every :data:`PERIOD_S` during a measurement.

    While entered, a ``SIGALRM`` handler runs the kernel between two
    bytecodes of whatever this process is doing, so the samples see the
    CPU exactly as the measured work does.  :meth:`clock` is
    ``perf_counter`` minus the time spent sampling, so sampling costs
    the measurement nothing but its share of caches; ``samples`` holds
    ``[clock(), kernel seconds]`` pairs.
    """

    def __init__(self):
        self.samples = []
        self.spent_s = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, _signum, _frame):
        if self._busy:  # a stall longer than the period: skip, not nest
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append([start - self.spent_s, kernel_s()])
        finally:
            self.spent_s += time.perf_counter() - start
            self._busy = False

    def clock(self):
        """Seconds of measured work so far (sampling time excluded)."""
        return time.perf_counter() - self.spent_s
