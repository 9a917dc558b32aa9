"""Fault injectors: deterministic, simulator-scheduled failures.

Each injector is a frozen description of one fault — *what* fails, *when*,
and for *how long*.  Arming an injector schedules its fire (and, for
transient faults, its clear) callbacks on the simulation clock; nothing
happens outside simulated time, so a schedule of injectors is exactly as
reproducible as the rest of the simulation (same seed + same schedule ⇒
bit-identical trace).

Injector taxonomy, bottom-up through the stack:

* :class:`LinkDown` / :class:`LossBurst` — the cable (``hw/link.py``);
* :class:`NicQueueSqueeze` — NIC receive descriptors (``hw/nic.py``);
* :class:`DatapathFailure` / :class:`DatapathStall` — a datapath plugin
  (driver crash / wedged PMD thread; triggers the runtime's QoS-aware
  failover, the tentpole of the fault model);
* :class:`CpuSlowdown` — the host's cores (``hw/host.py``).
"""

from dataclasses import dataclass, fields
from typing import Optional, Union

from repro.core.errors import FaultInjectionError

#: duration-suffix multipliers for :func:`parse_ns`, longest-first so
#: ``"ms"`` is tried before ``"s"``.
_NS_UNITS = (("ns", 1.0), ("us", 1e3), ("ms", 1e6), ("s", 1e9))


def parse_ns(value, what="duration"):
    """Normalize a time value to float nanoseconds.

    Accepts the JSON-native forms a declarative front end produces:
    plain numbers (already ns), and strings with a unit suffix —
    ``"250us"``, ``"1.5ms"``, ``"3s"``, ``"700ns"``, or a bare numeric
    string (ns).  ``None`` passes through (the "permanent" duration).
    Anything else raises :class:`~repro.core.errors.FaultInjectionError`.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        raise FaultInjectionError(
            "%s must be a number of ns or a '250us'-style string, got %r"
            % (what, value)
        )
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        text = value.strip().lower().replace("_", "").replace(" ", "")
        for suffix, scale in sorted(_NS_UNITS, key=lambda u: -len(u[0])):
            if text.endswith(suffix):
                number = text[: -len(suffix)]
                try:
                    return float(number) * scale
                except ValueError:
                    break
        try:
            return float(text)
        except ValueError:
            pass
        raise FaultInjectionError(
            "%s %r is not a recognized time: use a number of ns or a "
            "string with one of the suffixes %s (e.g. '250us')"
            % (what, value, "/".join(unit for unit, _ in _NS_UNITS))
        )
    raise FaultInjectionError(
        "%s must be a number of ns or a '250us'-style string, got %s %r"
        % (what, type(value).__name__, value)
    )


@dataclass(frozen=True)
class Injector:
    """Base class: one scheduled fault.

    ``at_ns`` is when the fault fires; ``for_ns`` is how long it lasts
    (``None`` = permanent — no clear callback is scheduled).  Both accept
    the string forms of :func:`parse_ns` (``"250us"``) and are normalized
    to float ns at construction, so a schedule built from YAML/JSON and a
    schedule built from Python literals compare (and digest) identically.
    """

    at_ns: Union[float, str]
    for_ns: Optional[Union[float, str]] = None

    def __post_init__(self):
        object.__setattr__(self, "at_ns", parse_ns(self.at_ns, "fault time"))
        object.__setattr__(
            self, "for_ns", parse_ns(self.for_ns, "fault duration")
        )
        if self.at_ns is None or self.at_ns < 0:
            raise FaultInjectionError("fault time must be >= 0, got %r" % (self.at_ns,))
        if self.for_ns is not None and self.for_ns <= 0:
            raise FaultInjectionError(
                "fault duration must be > 0 (or None for permanent), got %r"
                % (self.for_ns,)
            )

    def to_dict(self):
        """The injector as a JSON-native dict (``kind`` + its fields).

        Round-trips through :meth:`repro.faults.FaultSchedule.from_dict`;
        times are always emitted as plain ns numbers, never strings.
        """
        record = {"kind": self.kind, "at": self.at_ns}
        if self.for_ns is not None:
            record["for"] = self.for_ns
        for spec in fields(self):
            if spec.name in ("at_ns", "for_ns"):
                continue
            record[spec.name] = getattr(self, spec.name)
        return record

    #: short type tag used in trace lines and digests.
    kind = "fault"

    def describe(self):
        """Canonical, digest-stable description tuple."""
        return (self.kind, self.at_ns, self.for_ns) + self._target()

    def _target(self):
        return ()

    def arm(self, testbed, deployment, trace):
        """Schedule the fire/clear callbacks.  Called once by the schedule.

        What ``_fire`` returns is handed to ``_clear``: the state one
        firing needs undone lives with that firing, never on the
        (frozen, shareable) injector.  A ``_fire`` returning the string
        ``"skip"`` means the fault could not apply to the live system
        (e.g. the targeted datapath binding was never instantiated); the
        trace records a ``skip`` phase and no clear is scheduled, instead
        of an exception unwinding ``sim.run``.
        """
        sim = testbed.sim

        def fire():
            fired = self._fire(testbed, deployment)
            if fired == "skip":
                trace.record(sim.now, self.kind, "skip", self._target())
                return
            trace.record(sim.now, self.kind, "fire", self._target())
            if self.for_ns is not None:
                sim.schedule(self.for_ns, clear, fired)

        def clear(fired):
            self._clear(testbed, deployment, fired)
            trace.record(sim.now, self.kind, "clear", self._target())

        sim.schedule(self.at_ns, fire)

    # subclasses implement the actual fault mechanics:

    def _fire(self, testbed, deployment):
        raise NotImplementedError

    def _clear(self, testbed, deployment, fired):
        raise NotImplementedError


def _link(testbed, index):
    try:
        return testbed.links[index]
    except IndexError:
        raise FaultInjectionError(
            "no link %d on this testbed (%d links)" % (index, len(testbed.links))
        ) from None


def _host(testbed, index):
    try:
        return testbed.hosts[index]
    except IndexError:
        raise FaultInjectionError(
            "no host %d on this testbed (%d hosts)" % (index, len(testbed.hosts))
        ) from None


def _runtime(deployment, host_index):
    if deployment is None:
        raise FaultInjectionError(
            "this injector targets a runtime, but the schedule was applied "
            "without a deployment"
        )
    host = _host(deployment.testbed, host_index)
    runtime = deployment.runtimes.get(host.name)
    if runtime is None:
        raise FaultInjectionError("no runtime deployed on %s" % host.name)
    return runtime


@dataclass(frozen=True)
class LinkDown(Injector):
    """Cut a cable for ``for_ns`` (a link flap): every frame is lost."""

    link: int = 0
    kind = "link_down"

    def _target(self):
        return ("link%d" % self.link,)

    def _fire(self, testbed, deployment):
        _link(testbed, self.link).take_down()

    def _clear(self, testbed, deployment, fired):
        _link(testbed, self.link).bring_up()


@dataclass(frozen=True)
class LossBurst(Injector):
    """Raise a link's random loss rate to ``rate`` for ``for_ns``."""

    link: int = 0
    rate: float = 0.1
    kind = "loss_burst"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.rate <= 1.0:
            raise FaultInjectionError("loss rate must be in (0, 1], got %r" % (self.rate,))

    def _target(self):
        return ("link%d" % self.link, self.rate)

    def _fire(self, testbed, deployment):
        _link(testbed, self.link).loss_rate = self.rate

    def _clear(self, testbed, deployment, fired):
        _link(testbed, self.link).loss_rate = 0.0


@dataclass(frozen=True)
class NicQueueSqueeze(Injector):
    """Shrink a host NIC's receive queues to ``capacity`` descriptors."""

    host: int = 0
    capacity: int = 4
    kind = "nic_queue_squeeze"

    def _target(self):
        return ("host%d" % self.host, self.capacity)

    def _fire(self, testbed, deployment):
        return _host(testbed, self.host).nic.squeeze_queues(self.capacity)

    def _clear(self, testbed, deployment, fired):
        _host(testbed, self.host).nic.restore_queues(fired)


@dataclass(frozen=True)
class DatapathFailure(Injector):
    """Fail a datapath binding on one host's runtime.

    This is the headline fault: the runtime's health monitor detects the
    failure ``FAILOVER_DETECT_NS`` later and re-maps affected streams onto
    the best surviving datapath per their QoS policy (fast → XDP → kernel
    degradation order), emitting the paper's fallback warning.
    """

    host: int = 0
    datapath: str = "dpdk"
    reason: str = "injected"
    kind = "datapath_failure"

    def _target(self):
        return ("host%d" % self.host, self.datapath, self.reason)

    def _fire(self, testbed, deployment):
        runtime = _runtime(deployment, self.host)
        if runtime.bindings.get(self.datapath) is None:
            return "skip"
        runtime.fail_datapath(self.datapath, self.reason)

    def _clear(self, testbed, deployment, fired):
        _runtime(deployment, self.host).restore_datapath(self.datapath)


@dataclass(frozen=True)
class DatapathStall(Injector):
    """Wedge a datapath's polling passes for ``for_ns`` (queues back up,
    then drain — no failover, just a stall)."""

    host: int = 0
    datapath: str = "dpdk"
    kind = "datapath_stall"

    def __post_init__(self):
        super().__post_init__()
        if self.for_ns is None:
            raise FaultInjectionError("a stall needs a duration (for_ns)")

    def _target(self):
        return ("host%d" % self.host, self.datapath)

    def arm(self, testbed, deployment, trace):
        # a stall has no separate clear callback: the binding un-wedges
        # itself at stalled_until (it kicks its own polling threads)
        sim = testbed.sim

        def fire():
            runtime = _runtime(deployment, self.host)
            binding = runtime.bindings.get(self.datapath)
            if binding is None:
                trace.record(sim.now, self.kind, "skip", self._target())
                return
            binding.stall(self.for_ns)
            trace.record(sim.now, self.kind, "fire", self._target())

        sim.schedule(self.at_ns, fire)


@dataclass(frozen=True)
class CpuSlowdown(Injector):
    """Scale a host's software costs by ``factor`` (thermal throttling or
    a noisy neighbour stealing cycles)."""

    host: int = 0
    factor: float = 2.0
    kind = "cpu_slowdown"

    def __post_init__(self):
        super().__post_init__()
        if self.factor <= 0:
            raise FaultInjectionError("slowdown factor must be > 0, got %r" % (self.factor,))

    def _target(self):
        return ("host%d" % self.host, self.factor)

    def _fire(self, testbed, deployment):
        _host(testbed, self.host).slow_down(self.factor)

    def _clear(self, testbed, deployment, fired):
        _host(testbed, self.host).restore_speed()
