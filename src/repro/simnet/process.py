"""Generator-based cooperative processes and the effects they may yield.

A process body is a Python generator.  Each ``yield`` hands an *effect* to
the kernel, which resumes the generator when the effect completes::

    def worker(sim, inbox):
        while True:
            item = yield Get(inbox)        # block until an item arrives
            yield Timeout(500)             # model 500 ns of work
            ...

    sim.process(worker(sim, inbox))

Supported effects:

``Timeout(delay)``      resume after ``delay`` ns.
``Wait(signal)``        resume when a :class:`Signal` fires (with its value).
``Get(store)``          resume with the next item from a :class:`Store`.
``Put(store, item)``    resume once ``item`` has been accepted by the store.
``Join(process)``       resume with the return value of another process.
``AnyOf(signals)``      resume when the first of several signals fires.

Yielding another :class:`Process` directly is shorthand for ``Join``.
"""

from heapq import heappush

from repro.simnet.errors import ProcessFailed, SimulationError
from repro.simnet.events import Signal

#: shared args tuple for timer resumptions (``resume(None)``) — no
#: per-event allocation on the hottest path in the repository.
_NONE_ARGS = (None,)


class Timeout:
    """Suspend the process for ``delay`` ns of virtual time."""

    __slots__ = ("delay",)
    #: Trampoline dispatch tag (see :meth:`Process._resume`): the dominant
    #: yield types carry a small int so the hot dispatch is two attribute
    #: loads and an int compare instead of an isinstance/identity chain.
    #: 1=Timeout, 2=Get, 3=Put, 4=Wait, 5=TimeoutAt; 0 (or absent) falls
    #: back to ``effect.apply()``.
    _tag = 1

    def __init__(self, delay):
        self.delay = delay

    def apply(self, sim, process):
        sim.schedule(self.delay, process.resume, None)


class TimeoutAt:
    """Suspend the process until the absolute instant ``at`` ns.

    ``Timeout(at - sim.now)`` wakes at ``now + (at - now)``, which float
    rounding does not guarantee to equal ``at``.  Code that coalesces a
    chain of relative sleeps into one event computes the chain's exact
    final instant step by step and yields it here, so the wake-up is bit
    identical to the unfused schedule.
    """

    __slots__ = ("at",)
    _tag = 5

    def __init__(self, at):
        self.at = at

    def apply(self, sim, process):
        # exotic engines (no schedule_abs) fall back to a relative sleep
        schedule_abs = getattr(sim, "schedule_abs", None)
        if schedule_abs is not None:
            schedule_abs(self.at, process.resume, None)
        else:
            sim.schedule(self.at - sim.now, process.resume, None)


class Wait:
    """Suspend until ``signal`` fires; resumes with the signal's value."""

    __slots__ = ("signal",)
    _tag = 4

    def __init__(self, signal):
        self.signal = signal

    def apply(self, sim, process):
        self.signal.add_waiter(process.resume)


class AnyOf:
    """Suspend until the first of ``signals`` fires.

    Resumes with ``(index, value)`` of the first signal that fired.
    """

    __slots__ = ("signals",)
    _tag = 0

    def __init__(self, signals):
        self.signals = list(signals)

    def apply(self, sim, process):
        state = {"done": False}

        def make_waiter(index):
            def waiter(value, exception):
                if state["done"]:
                    return
                state["done"] = True
                process.resume((index, value), exception)

            return waiter

        for index, signal in enumerate(self.signals):
            signal.add_waiter(make_waiter(index))


class Get:
    """Take the next item from a :class:`Store`, blocking while empty."""

    __slots__ = ("store",)
    _tag = 2

    def __init__(self, store):
        self.store = store

    def apply(self, sim, process):
        self.store.add_getter(process.resume)


class Put:
    """Deposit ``item`` into a :class:`Store`, blocking while full."""

    __slots__ = ("store", "item")
    _tag = 3

    def __init__(self, store, item):
        self.store = store
        self.item = item

    def apply(self, sim, process):
        self.store.add_putter(self.item, process.resume)


class Join:
    """Wait for another process to finish; resumes with its return value."""

    __slots__ = ("process",)
    _tag = 0

    def __init__(self, process):
        self.process = process

    def apply(self, sim, process):
        self.process.done.add_waiter(process.resume)


class Process:
    """A running generator driven by the simulator.

    Attributes
    ----------
    done:
        A :class:`Signal` fired with the generator's return value when it
        finishes, or failed with :class:`ProcessFailed` if it raises.
    """

    def __init__(self, sim, generator, name=None):
        self.sim = sim
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.done = Signal(sim)
        self._finished = False
        # Bound methods are allocated per attribute access; the resume
        # trampoline runs once per event, so cache them up front.
        self._send = generator.send
        self._throw = generator.throw
        # The fast engine's scheduling internals (None on the legacy
        # engine): Timeout resumptions — one per charged cost — bypass the
        # schedule() call and push the heap/lane entry directly.
        self._lane = getattr(sim, "_lane", None)
        self.resume = resume = self._resume
        sim.schedule(0, resume, None, None)

    @property
    def finished(self):
        return self._finished

    def _resume(self, value, exception=None):
        """Advance the generator with ``value`` (or throw ``exception``).

        The body is a loop rather than a single step: when a ``Get`` finds
        its item already waiting, or a ``Put`` is accepted at once, and
        nothing else is runnable at this instant (empty lane, heap
        strictly in the future, no observer), the hand-off event is
        elided and the generator continues in place — ``sim._executed``
        is bumped for the elided event so counters stay bit-identical to
        the scheduled form.
        """
        if self._finished:
            return
        while True:
            try:
                if exception is not None:
                    effect = self._throw(exception)
                else:
                    effect = self._send(value)
            except StopIteration as stop:
                self._finished = True
                self.done.succeed(getattr(stop, "value", None))
                return
            except Exception as exc:  # surface the failure to joiners
                self._finished = True
                self.sim.failures.append((self.name, exc))
                self.done.fail(ProcessFailed(self.name, exc))
                return
            # Tag dispatch for the hot effects: every built-in effect
            # carries a small-int ``_tag`` class attribute, so the dominant
            # yields cost one attribute load plus int compares — no
            # isinstance chain, no method call.  Exotic effects (tag 0)
            # fall back to effect.apply(); a bare Process yield has no tag
            # at all and is wrapped as Join.
            try:
                tag = effect._tag
            except AttributeError:
                if isinstance(effect, Process):
                    Join(effect).apply(self.sim, self)
                else:
                    effect.apply(self.sim, self)
                return
            if tag == 1:  # Timeout — one per charged cost, the hottest yield
                lane = self._lane
                if lane is None:
                    self.sim.schedule(effect.delay, self.resume, None)
                    return
                # inline of Simulator.schedule(delay, resume, None): same
                # seq accounting, same lane/heap split, minus the call
                # overhead
                sim = self.sim
                delay = effect.delay
                if delay <= 0:
                    if delay < 0:
                        raise SimulationError(
                            "cannot schedule in the past (delay=%r)" % (delay,)
                        )
                    sim._seq = seq = sim._seq + 1
                    lane.append((seq, self.resume, _NONE_ARGS))
                else:
                    sim._seq = seq = sim._seq + 1
                    heap = sim._heap
                    heappush(heap, (sim.now + delay, seq, self.resume, _NONE_ARGS))
                    if len(heap) > sim._peak_heap:
                        sim._peak_heap = len(heap)
                return
            elif tag == 2 or tag == 3:
                # Get / Put: the store's own add_getter / add_putter, with
                # the completion's lane entry elided when it would be the
                # next event run
                store = effect.store
                lane = self._lane
                if lane is None or lane or store._putters:
                    if tag == 2:
                        store.add_getter(self.resume)
                    else:
                        store.add_putter(effect.item, self.resume)
                    return
                if tag == 2:
                    items = store._items
                    if not items or store._getters:
                        store.add_getter(self.resume)
                        return
                    value = items.popleft()
                else:
                    # a getter it wakes or a thread it kicks goes on the
                    # lane first, which rules the elision out below
                    if not store.try_put(effect.item):
                        store._putters.append((effect.item, self.resume))
                        return
                    value = None
                sim = self.sim
                heap = sim._heap
                if not lane and sim.observer is None and (
                    not heap or heap[0][0] > sim.now
                ):
                    # nothing else runnable at this instant: elide the
                    # lane round-trip and continue the generator in place
                    sim._executed += 1
                    exception = None
                    continue
                sim._seq = seq = sim._seq + 1
                lane.append((seq, self.resume, (value, None)))
                return
            elif tag == 4:
                effect.signal.add_waiter(self.resume)
                return
            elif tag == 5:  # TimeoutAt — exact-instant wake of a fused sleep
                if self._lane is None:
                    effect.apply(self.sim, self)
                    return
                # inline of Simulator.schedule_abs(at, resume, None)
                sim = self.sim
                at = effect.at
                if at < sim.now:
                    effect.apply(sim, self)  # epsilon clamp / past-time error
                    return
                sim._seq = seq = sim._seq + 1
                heap = sim._heap
                heappush(heap, (at, seq, self.resume, _NONE_ARGS))
                if len(heap) > sim._peak_heap:
                    sim._peak_heap = len(heap)
                return
            else:
                effect.apply(self.sim, self)
                return

    def interrupt(self, exception=None):
        """Throw ``exception`` (default :class:`Interrupt`) into the body."""
        self.sim.schedule(0, self.resume, None, exception or Interrupt())


class Interrupt(Exception):
    """Default exception delivered by :meth:`Process.interrupt`."""
