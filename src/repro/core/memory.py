"""The memory manager: pools, slots, and zero-copy buffers.

This is the paper's central abstraction (§5.3): "the memory manager reserves
a memory area (memory pools) [...] divided into memory slots, uniquely
identified within the pool by a slot id".  Applications and datapaths never
exchange payload bytes directly — they exchange slot ids, and payloads live
in one backing area per pool.

The implementation is *really* zero-copy inside a host: a :class:`Buffer` is
a ``memoryview`` into the pool's single anonymous memory mapping.  Only the
simulated NIC DMA moves bytes between the pools of different hosts.
Lifecycle bugs (double release, use after emit) are therefore observable and
tested.

Reserving the area does not touch it: the kernel supplies each page, zeroed,
on its first write, and a slot's :class:`Buffer` is built on the slot's
first allocation.  A pool costs the pages and buffers its peak occupancy
touches, not its capacity.
"""

import mmap

from repro.core.errors import (
    BufferLifecycleError,
    PoolExhaustedError,
    SessionError,
)
from repro.simnet import Counter


class Buffer:
    """A leased slot: the unit of zero-copy data exchange.

    ``view`` is writable memory backed by the pool; ``length`` is the number
    of valid payload bytes (set by :meth:`write` or manually before emit).
    ``refcount`` supports multi-sink delivery: the slot returns to the free
    list only when every borrower has released it.  ``lease`` numbers the
    slot's leases (one per allocation or waiter hand-off; the pool bumps
    it as each lease ends): a delivery token records it, so a token held
    past its slot's release is told apart from the slot's next message.
    """

    __slots__ = ("pool", "slot_id", "view", "length", "refcount", "frozen",
                 "lease")

    def __init__(self, pool, slot_id, view):
        self.pool = pool
        self.slot_id = slot_id
        self.view = view
        self.length = 0
        self.refcount = 1
        self.frozen = False
        self.lease = 0

    @property
    def capacity(self):
        return len(self.view)

    def write(self, data):
        """Copy ``data`` into the slot and set the valid length."""
        if self.frozen:
            raise BufferLifecycleError(
                "buffer slot %d was emitted; no after-write allowed" % self.slot_id
            )
        if len(data) > self.capacity:
            raise ValueError(
                "payload of %d B exceeds slot capacity %d B" % (len(data), self.capacity)
            )
        self.view[: len(data)] = data
        self.length = len(data)

    def payload(self):
        """A read-only view of the valid bytes."""
        return self.view[: self.length].toreadonly()

    def freeze(self):
        """Mark the buffer emitted: the paper's no-after-write contract."""
        self.frozen = True

    def __repr__(self):
        return "Buffer(pool=%s, slot=%d, len=%d, rc=%d)" % (
            self.pool.name,
            self.slot_id,
            self.length,
            self.refcount,
        )


class SlotPool:
    """A pool of fixed-size slots carved out of one lazily mapped area.

    The area is one private anonymous mapping of ``slots * slot_bytes``
    bytes: private, so a forked child gets its own copy of the slot bytes
    rather than sharing them; anonymous, so no page is resident before its
    first write.  Buffers are built up to a high-water mark as slots are
    first allocated.  Allocation takes the most recently released slot
    first, otherwise the lowest slot id never used; slots never used count
    as free.
    """

    def __init__(self, sim, slots, slot_bytes, name="pool"):
        if slots < 1 or slot_bytes < 1:
            raise ValueError("pool needs at least one slot of at least one byte")
        self.sim = sim
        self.name = name
        self.slots = slots
        self.slot_bytes = slot_bytes
        self._view = memoryview(
            mmap.mmap(-1, slots * slot_bytes, flags=mmap.MAP_PRIVATE)
        )
        #: slots ``[0, _built)`` have a Buffer; the rest were never used
        self._built = 0
        #: released buffers, reused last-in first-out
        self._free = []
        self._live = {}
        self.allocations = Counter(name + ".allocations")
        self.exhaustions = Counter(name + ".exhaustions")
        self._waiters = []

    @property
    def free_slots(self):
        return len(self._free) + self.slots - self._built

    @property
    def in_use(self):
        return self._built - len(self._free)

    def try_alloc(self, size=0):
        """Allocate a slot, or return ``None`` (counting the exhaustion)."""
        if size > self.slot_bytes:
            raise ValueError(
                "requested %d B but slots are %d B; fragment at the "
                "application level" % (size, self.slot_bytes)
            )
        free = self._free
        if free:
            buffer = free.pop()
            buffer.length = 0
            buffer.refcount = 1
            buffer.frozen = False
        elif self._built < self.slots:
            slot_id = self._built
            self._built = slot_id + 1
            start = slot_id * self.slot_bytes
            buffer = Buffer(self, slot_id,
                            self._view[start:start + self.slot_bytes])
        else:
            self.exhaustions.value += 1
            return None
        self._live[buffer.slot_id] = buffer
        self.allocations.value += 1
        return buffer

    def alloc(self, size=0):
        """Allocate a slot or raise :class:`PoolExhaustedError`."""
        buffer = self.try_alloc(size)
        if buffer is None:
            raise PoolExhaustedError("%s out of slots" % self.name)
        return buffer

    def add_alloc_waiter(self, callback):
        """Call ``callback(buffer, None)`` as soon as a slot frees up."""
        buffer = self.try_alloc()
        if buffer is not None:
            self.sim.schedule(0, callback, buffer, None)
        else:
            self._waiters.append(callback)

    def drop_alloc_waiter(self, callback):
        """Forget ``callback`` if it still waits for a slot."""
        if callback in self._waiters:
            self._waiters.remove(callback)

    def addref(self, buffer, count=1):
        """Take ``count`` extra references for multi-sink delivery."""
        if buffer.pool is not self or self._live.get(buffer.slot_id) is not buffer:
            self._check_live(buffer)  # raises with the precise diagnosis
        buffer.refcount += count

    def release(self, buffer):
        """Drop one reference; recycle the slot when it hits zero."""
        if buffer.pool is not self or self._live.get(buffer.slot_id) is not buffer:
            self._check_live(buffer)  # raises with the precise diagnosis
        buffer.refcount -= 1
        if buffer.refcount > 0:
            return
        del self._live[buffer.slot_id]
        buffer.frozen = False
        buffer.length = 0
        buffer.lease += 1
        if self._waiters:
            # hand the slot straight to a blocked allocator
            callback = self._waiters.pop(0)
            buffer.refcount = 1
            self._live[buffer.slot_id] = buffer
            self.allocations.value += 1
            self.sim.schedule(0, callback, buffer, None)
        else:
            self._free.append(buffer)

    def lookup(self, slot_id):
        """Resolve a slot id received over an IPC ring to its buffer."""
        try:
            return self._live[slot_id]
        except KeyError:
            raise BufferLifecycleError("slot %d is not live in %s" % (slot_id, self.name))

    def _check_live(self, buffer):
        if buffer.pool is not self:
            raise BufferLifecycleError(
                "buffer from pool %s used on pool %s" % (buffer.pool.name, self.name)
            )
        if self._live.get(buffer.slot_id) is not buffer:
            raise BufferLifecycleError(
                "slot %d is not live (double release?)" % buffer.slot_id
            )


class MemoryManager:
    """Per-runtime pool registry with per-application accounting.

    When an application opens a session it *attaches*, which models mapping
    a part of the shared memory area into its own address space; detach
    releases any slots the application leaked, which keeps a long-running
    runtime healthy across misbehaving clients.

    Each application's buffers map to the references it holds: one
    application with two sinks on a channel is lent each message twice.
    Quotas count slots, not references.
    """

    def __init__(self, sim, profile, name="memmgr"):
        self.sim = sim
        self.name = name
        self.pool = SlotPool(
            sim,
            slots=profile.scalar("pool_slots"),
            slot_bytes=profile.scalar("pool_slot_bytes"),
            name=name + ".pool",
        )
        self._attached = {}
        self._quotas = {}
        #: app id -> callbacks parked by alloc_waiter_for at the quota
        self._quota_waiters = {}
        #: app id -> {pool callback: caller's callback} of every
        #: alloc_waiter_for call not yet handed a buffer
        self._waiting = {}

    def attach(self, app_id, quota=None):
        """Attach an application; ``quota`` optionally caps how many slots
        it may hold at once (multi-tenant isolation)."""
        if app_id in self._attached:
            raise ValueError("application %r already attached" % (app_id,))
        if quota is not None and quota < 1:
            raise ValueError("quota must be >= 1")
        self._attached[app_id] = {}
        if quota is not None:
            self._quotas[app_id] = quota

    def detach(self, app_id):
        """Detach an application: its waiting allocations fail with
        :class:`SessionError`, then every reference it still holds is
        released, each slot returning to the pool (or to the next
        waiting application).  Returns the count of references."""
        leaked = self._attached.pop(app_id, {})
        self._quotas.pop(app_id, None)
        self._quota_waiters.pop(app_id, None)
        for on_alloc, callback in self._waiting.pop(app_id, {}).items():
            self.pool.drop_alloc_waiter(on_alloc)
            callback(None, SessionError(
                "application %r detached while waiting for a buffer"
                % (app_id,)))
        for buffer, references in leaked.items():
            for _ in range(references):
                self.pool.release(buffer)
        return sum(leaked.values())

    def alloc_for(self, app_id, size=0):
        """Allocate a slot on behalf of an attached application."""
        owned = self._attached.get(app_id)
        if owned is None:
            raise ValueError("application %r is not attached" % (app_id,))
        if self._quotas:
            quota = self._quotas.get(app_id)
            if quota is not None and len(owned) >= quota:
                raise PoolExhaustedError(
                    "application %r reached its slot quota (%d)" % (app_id, quota)
                )
        buffer = self.pool.try_alloc(size)
        if buffer is None:
            raise PoolExhaustedError("%s out of slots" % self.pool.name)
        owned[buffer] = 1
        return buffer

    def alloc_waiter_for(self, app_id, callback):
        """Allocate on behalf of ``app_id`` once it is under its quota and
        a slot is free, then call ``callback(buffer, None)``.

        An application at its quota parks until it holds fewer slots.  A
        slot handed over while it was lent back up to its quota returns
        to the pool, and the application parks again.  Detaching the
        application first calls ``callback(None, SessionError)`` instead.
        """
        owned = self._attached.get(app_id)
        if owned is None:
            raise ValueError("application %r is not attached" % (app_id,))
        quota = self._quotas.get(app_id)
        waiting = self._waiting.setdefault(app_id, {})

        def on_alloc(buffer, exception):
            if self._attached.get(app_id) is not owned:
                # detached while the slot was on its way: detach failed
                # the call, so the slot goes to the next waiter
                self.pool.release(buffer)
                return
            if quota is not None and len(owned) >= quota:
                self.pool.release(buffer)
                self._quota_waiters.setdefault(app_id, []).append(on_alloc)
                return
            owned[buffer] = 1
            del waiting[on_alloc]
            callback(buffer, exception)

        waiting[on_alloc] = callback
        if quota is not None and len(owned) >= quota:
            self._quota_waiters.setdefault(app_id, []).append(on_alloc)
        else:
            self.pool.add_alloc_waiter(on_alloc)

    def _below_quota(self, app_id, owned):
        """Send the oldest allocation parked at ``app_id``'s quota to the
        pool once the application holds fewer slots."""
        waiters = self._quota_waiters.get(app_id)
        if waiters and len(owned) < self._quotas[app_id]:
            self.pool.add_alloc_waiter(waiters.pop(0))
            if not waiters:
                del self._quota_waiters[app_id]

    def release_for(self, app_id, buffer):
        """Drop one of ``app_id``'s references to ``buffer``.

        An application holding no reference raises before the pool is
        touched: a double release must not free a slot that another
        application still holds.
        """
        owned = self._attached.get(app_id)
        if owned is None:
            raise ValueError("application %r is not attached" % (app_id,))
        references = owned.pop(buffer, 0)
        if references > 1:
            owned[buffer] = references - 1
        elif not references:
            raise BufferLifecycleError(
                "application %r holds no reference to slot %d (double "
                "release?)" % (app_id, buffer.slot_id)
            )
        self.pool.release(buffer)
        if self._quota_waiters:
            self._below_quota(app_id, owned)

    def transfer_ownership(self, app_id, buffer):
        """The application emitted the buffer: the runtime now owns it."""
        owned = self._attached.get(app_id)
        if owned is None or buffer not in owned:
            raise BufferLifecycleError(
                "application %r does not own %r" % (app_id, buffer)
            )
        references = owned.pop(buffer)
        if references > 1:
            owned[buffer] = references - 1
        if self._quota_waiters:
            self._below_quota(app_id, owned)

    def lend_to(self, app_id, buffer):
        """The runtime hands a received buffer to a sink application."""
        owned = self._attached.get(app_id)
        if owned is None:
            raise ValueError("application %r is not attached" % (app_id,))
        owned[buffer] = owned.get(buffer, 0) + 1
