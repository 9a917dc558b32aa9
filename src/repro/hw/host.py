"""A host: CPU cores, one NIC, and cost-charging helpers."""

from math import cos as _cos, log as _log, pi, sin as _sin, sqrt as _sqrt

from repro.simnet import Resource, Timeout

_TWOPI = 2.0 * pi


class Host:
    """One machine of a testbed.

    Software stage costs are charged by the processes that model threads on
    this host; :meth:`jitter` applies the profile's relative CPU noise so
    latency distributions have realistic (small) spread while medians stay
    on calibration.
    """

    def __init__(self, sim, profile, name, ip):
        self.sim = sim
        self.profile = profile
        self.name = name
        self.ip = ip
        self.nic = None  # wired by the topology builder
        #: the kernel UDP datapath, created on first use by
        #: ``KernelUdpDatapath.get``
        self.kernel_udp = None
        self.cores = Resource(sim, capacity=profile.cores, name=name + ".cores")
        self._pinned = 0
        # jitter() runs once per charged stage — cache the rng and sigma,
        # and draw inline (see jitter) so the hot path makes no calls
        # beyond rng.random() itself
        self._rng = sim.rng
        self._cpu_sigma = profile.cpu_jitter
        # StageCost.cost is a pure function of (key, size, burst); memoize
        # the jitter-free value (jitter is applied on top per call)
        self._stage_cache = {}
        #: fault-injection multiplier on every software cost (1.0 = nominal);
        #: models a thermally-throttled or noisy-neighbour CPU
        self._slowdown = 1.0

    def jitter(self, cost_ns):
        """Apply the profile's CPU jitter to a software cost."""
        if self._slowdown != 1.0:
            cost_ns *= self._slowdown
        sigma = self._cpu_sigma
        if sigma <= 0:
            return cost_ns
        # Inline of random.Random.gauss(1.0, sigma) (CPython's Box-Muller
        # with the pair cache in rng.gauss_next): draw-for-draw identical
        # to calling rng.gauss, minus one Python call per charged stage.
        rng = self._rng
        z = rng.gauss_next
        if z is None:
            uniform = rng.random
            x2pi = uniform() * _TWOPI
            g2rad = _sqrt(-2.0 * _log(1.0 - uniform()))
            z = _cos(x2pi) * g2rad
            rng.gauss_next = _sin(x2pi) * g2rad
        else:
            rng.gauss_next = None
        factor = 1.0 + z * sigma
        if factor < 0.5:
            factor = 0.5
        return cost_ns * factor

    def stage_cost(self, key, size, burst=1, jitter=True):
        """Cost of stage ``key`` for one packet of ``size`` bytes."""
        cache_key = (key, size, burst)
        cost = self._stage_cache.get(cache_key)
        if cost is None:
            if len(self._stage_cache) > 8192:
                self._stage_cache.clear()
            cost = self._stage_cache[cache_key] = self.profile.stage(key).cost(
                size, burst=burst
            )
        return self.jitter(cost) if jitter else cost

    def stage_cost_effect(self, key, size, burst=1):
        """A ``Timeout`` effect charging stage ``key`` to the caller."""
        return Timeout(self.stage_cost(key, size, burst=burst))

    def slow_down(self, factor):
        """Fault injection: scale every software cost by ``factor`` until
        :meth:`restore_speed` (jitter is applied on top, so the rng stream
        is unchanged — determinism contract)."""
        if factor <= 0:
            raise ValueError("slowdown factor must be > 0")
        self._slowdown = float(factor)

    def restore_speed(self):
        self._slowdown = 1.0

    def pin_core(self):
        """Reserve one core for a pinned thread (polling threads, apps).

        Raises ``RuntimeError`` when the host is out of cores, mirroring a
        real deployment error.
        """
        if not self.cores.try_acquire():
            raise RuntimeError("%s has no free cores to pin" % self.name)
        self._pinned += 1

    def unpin_core(self):
        self.cores.release()
        self._pinned -= 1

    @property
    def pinned_cores(self):
        return self._pinned

    def __repr__(self):
        return "Host(%s, ip=%s, profile=%s)" % (self.name, self.ip, self.profile.name)
