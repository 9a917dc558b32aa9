"""The pool of polling threads executing datapath logic (paper §5.3).

Each thread is pinned to a core and drives one or more datapath bindings,
one pass per binding and round: the pass drains the client TX rings
through the packet scheduler into the datapath, then the datapath's
receive queue into sink rings.  A thread parks after a round that did no
work and is kicked awake by ring/queue activity (or by the next TSN gate
opening), so an idle runtime consumes no simulated CPU — matching the
paper's "threads are automatically paused when idle".  Only a parked
thread arms its bindings' rings and receive queue to kick it: while every
thread of a binding runs, an item put there calls nothing.
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
        #: the bindings armed by the current park; ``add_binding`` may
        #: grow ``bindings`` while it lasts
        self._parked_on = ()
        self.host.pin_core()
        self.process = self.sim.process(self._loop(), name=name)

    def add_binding(self, binding):
        binding.threads.append(self)
        self.bindings.append(binding)
        self.kick()

    def kick(self):
        """Wake the thread if it is parked, disarming what its park armed."""
        signal = self._signal
        if signal is not None:
            self._signal = None
            for binding in self._parked_on:
                binding.parked -= 1
                if not binding.parked:
                    binding.arm(False)
            signal.succeed()

    def stop(self):
        self.running = False
        self.kick()

    # -- main loop ------------------------------------------------------------

    def _loop(self):
        """Poll each binding that has work; park after a round without.

        ``pending`` is plain attribute reads, and a pass that would find
        nothing yields nothing, so skipping it only saves wall clock (a
        ``poll`` generator costs an allocation even when idle).  A stale
        positive (a closed TSN gate) runs a pass that reports no work.
        No wake-up is lost: an item that arrives while the thread runs
        (which kicks nothing, unless another thread of its binding is
        parked) arrives while a pass that did work is suspended, and the
        next round polls every binding, as a thread's first round does.
        """
        try:
            while self.running:
                progressed = False
                for binding in self.bindings:
                    if binding.pending():
                        progressed = (yield from binding.poll()) or progressed
                if not progressed:
                    yield from self._park()
        finally:
            self.host.unpin_core()

    def _park(self):
        """Idle: sleep until kicked or until the next TSN gate opens."""
        self._signal = Signal(self.sim)
        self._parked_on = bindings = tuple(self.bindings)
        now = self.sim.now
        wake_at = None
        for binding in bindings:
            binding.parked += 1
            if binding.parked == 1:
                binding.arm(True)
            ready = binding.scheduler.next_ready_at(now)
            if ready is not None and (wake_at is None or ready < wake_at):
                wake_at = ready
        timer = None
        if wake_at is not None and wake_at > now:
            timer = self.sim.schedule_cancellable_at(wake_at, self.kick)
        yield Wait(self._signal)  # kick() drops the signal as it fires it
        if timer is not None:
            timer.cancel()
