"""The pool of polling threads executing datapath logic (paper §5.3).

Each thread is pinned to a core and drives one or more datapath bindings:
it drains the client TX rings through the packet scheduler into the
datapath, and drains the datapath's receive queue into sink rings.  Threads
pause automatically when idle and are kicked awake by ring/queue activity
(or by the next TSN gate opening), so an idle runtime consumes no simulated
CPU — matching the paper's "threads are automatically paused when idle".
"""

from repro.simnet import Signal, Wait


class PollingThread:
    """One pinned polling thread serving a set of datapath bindings."""

    def __init__(self, runtime, name):
        self.runtime = runtime
        self.host = runtime.host
        self.sim = runtime.sim
        self.name = name
        self.bindings = []
        self.running = True
        self._signal = None
        self._pending_kick = False
        self._wake_handle = None
        self.host.pin_core()
        self.process = self.sim.process(self._loop(), name=name)

    def add_binding(self, binding):
        binding.threads.append(self)
        self.bindings.append(binding)
        self.kick()

    def kick(self):
        """Wake the thread if it is parked; remember the kick otherwise."""
        if self._signal is not None and not self._signal.fired:
            signal, self._signal = self._signal, None
            signal.succeed()
        else:
            self._pending_kick = True

    def stop(self):
        self.running = False
        self.kick()

    # -- main loop ------------------------------------------------------------

    def _loop(self):
        """Poll bindings, but only enter a pass that can make progress.

        ``tx_pass``/``rx_pass`` are generators: calling them allocates a
        generator object and runs the full drain scaffolding even when
        every queue is empty.  The pending checks are plain attribute
        reads, and a pass that would find nothing yields nothing — so
        skipping it is invisible to the simulation and only saves wall
        clock.  A stale positive is harmless: the pass runs, finds no
        eligible work (e.g. a closed TSN gate), and reports no progress,
        exactly as an unconditional pass would.
        """
        try:
            while self.running:
                progressed = False
                for binding in self.bindings:
                    if binding.tx_pending():
                        progressed = (yield from binding.tx_pass()) or progressed
                    if binding.rx_pending():
                        progressed = (yield from binding.rx_pass()) or progressed
                if progressed:
                    continue
                if self._pending_kick:
                    self._pending_kick = False
                    continue
                yield from self._park()
        finally:
            self.host.unpin_core()

    def _park(self):
        """Idle: sleep until kicked or until the next TSN gate opens."""
        self._signal = Signal(self.sim)
        wake_at = self._earliest_scheduler_wake()
        if wake_at is not None and wake_at > self.sim.now:
            self._wake_handle = self.sim.schedule_cancellable_at(wake_at, self.kick)
        yield Wait(self._signal)
        self._signal = None
        self._pending_kick = False
        if self._wake_handle is not None:
            self._wake_handle.cancel()
            self._wake_handle = None

    def _earliest_scheduler_wake(self):
        earliest = None
        for binding in self.bindings:
            ready = binding.scheduler.next_ready_at(self.sim.now)
            if ready is not None and (earliest is None or ready < earliest):
                earliest = ready
        return earliest
