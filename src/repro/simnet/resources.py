"""Bounded stores and counted resources.

These primitives carry all queueing behaviour in the repository: NIC rings,
IPC token queues, scheduler backlogs, and memory-pool free lists are all
:class:`Store` instances, so overflow, backpressure, and drop accounting are
handled uniformly.
"""

from collections import deque

from repro.simnet.errors import StoreFullError

_UNBOUNDED = float("inf")

#: shared args tuple for ``callback(None, None)`` completions — the wake-up
#: path allocates nothing per event.
_DONE_ARGS = (None, None)


class Store:
    """A FIFO queue of items with optional capacity.

    Processes interact through ``yield Get(store)`` / ``yield Put(store,
    item)``; non-process code (plain callbacks) uses the ``*_nowait``
    variants.
    """

    def __init__(self, sim, capacity=_UNBOUNDED, name=None):
        if capacity is not _UNBOUNDED and capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        # The fast engine's zero-delay lane (None on the legacy engine):
        # ready hand-offs append the event directly, skipping a
        # ``schedule()`` call per item.  Sequence numbers are taken from
        # the same counter, so ordering is identical either way.
        self._lane = getattr(sim, "_lane", None)
        self._items = deque()
        self._getters = deque()
        self._putters = deque()
        #: optional callback invoked (synchronously) whenever an item is
        #: enqueued with no getter waiting — used by polling threads to be
        #: kicked awake without busy-waiting.
        self.on_item = None

    def __len__(self):
        return len(self._items)

    # -- non-blocking interface ------------------------------------------

    def put_nowait(self, item):
        """Deposit ``item`` immediately; raise :class:`StoreFullError` if full."""
        if not self.try_put(item):
            raise StoreFullError(self.name or "store")

    def try_put(self, item):
        """Deposit ``item`` if there is room; return ``True`` on success."""
        if self._getters:
            getter = self._getters.popleft()
            lane = self._lane
            if lane is None:
                self.sim.schedule(0, getter, item, None)
            else:
                sim = self.sim
                sim._seq = seq = sim._seq + 1
                lane.append((seq, getter, (item, None)))
            return True
        if len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        if self.on_item is not None:
            self.on_item()
        return True

    def try_get(self):
        """Return ``(True, item)`` if an item is available, else ``(False, None)``."""
        items = self._items
        if items:
            item = items.popleft()
            if self._putters:
                self._admit_putter()
            return True, item
        return False, None

    def drain(self, max_items):
        """Take up to ``max_items`` items, oldest first, without blocking.

        The same as that many :meth:`try_get` calls: each take admits one
        blocked putter, whose item the next take may return.
        """
        items = self._items
        taken = []
        while items and len(taken) < max_items:
            taken.append(items.popleft())
            if self._putters:
                self._admit_putter()
        return taken

    # -- blocking (process) interface ------------------------------------

    def add_getter(self, callback):
        """Register ``callback(item, exception)`` for the next item."""
        items = self._items
        if items:
            item = items.popleft()
            if self._putters:
                self._admit_putter()
            lane = self._lane
            if lane is None:
                self.sim.schedule(0, callback, item, None)
            else:
                sim = self.sim
                sim._seq = seq = sim._seq + 1
                lane.append((seq, callback, (item, None)))
        else:
            self._getters.append(callback)

    def add_putter(self, item, callback):
        """Deposit ``item`` when room is available, then ``callback(None, None)``."""
        if self.try_put(item):
            lane = self._lane
            if lane is None:
                self.sim.schedule(0, callback, None, None)
            else:
                sim = self.sim
                sim._seq = seq = sim._seq + 1
                lane.append((seq, callback, _DONE_ARGS))
        else:
            self._putters.append((item, callback))

    def _admit_putter(self):
        if self._putters and len(self._items) < self.capacity:
            item, callback = self._putters.popleft()
            self._items.append(item)
            lane = self._lane
            if lane is None:
                self.sim.schedule(0, callback, None, None)
            else:
                sim = self.sim
                sim._seq = seq = sim._seq + 1
                lane.append((seq, callback, _DONE_ARGS))


class Resource:
    """A counted resource (e.g. CPU cores), taken without blocking."""

    def __init__(self, sim, capacity=1, name=None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self.in_use = 0

    @property
    def available(self):
        return self.capacity - self.in_use

    def try_acquire(self):
        """Acquire a unit without blocking; return ``True`` on success."""
        if self.in_use < self.capacity:
            self.in_use += 1
            return True
        return False

    def release(self):
        """Return one unit."""
        if self.in_use <= 0:
            raise RuntimeError("release without acquire on %r" % (self.name,))
        self.in_use -= 1
