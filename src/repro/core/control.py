"""Out-of-band control plane: runtime discovery and channel subscriptions.

INSANE runtimes forward emitted messages "to the reachable remote INSANE
runtimes" with matching sinks (paper §7.1).  The subscription state behind
that forwarding is maintained here, modelling a DDS-like discovery service:
registration happens out of band (control traffic is not on the measured
datapath), and each runtime consults its cached view at emit time.
"""

from collections import defaultdict
from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass
class FailoverEvent:
    """Record of one detected datapath failure and the remap it triggered."""

    host: str
    datapath: str
    reason: str
    failed_at: float
    detected_at: float
    #: ``(app_id, stream, old_datapath, new_datapath)`` per re-mapped stream.
    remapped: List[Tuple[str, str, str, str]] = field(default_factory=list)
    #: ``(app_id, stream)`` per stream left with no surviving datapath.
    stranded: List[Tuple[str, str]] = field(default_factory=list)
    #: tokens moved from the dead binding's rings to the fallback's.
    migrated: int = 0

    @property
    def detection_latency_ns(self):
        return self.detected_at - self.failed_at


class HealthMonitor:
    """Detects failed datapath bindings and drives QoS-aware failover.

    Detection is event-driven rather than a periodic polling process (a
    forever-ticking process would keep the discrete-event simulation from
    ever draining): a binding failure schedules one health-check callback
    ``detect_ns`` later — modelling the monitor's sampling interval — and
    that callback re-maps every affected stream *exactly once* per failure
    epoch.  A restore before the callback fires turns it into a no-op, and
    a later re-failure starts a fresh epoch with its own callback.
    """

    def __init__(self, runtime, detect_ns=50_000.0):
        self.runtime = runtime
        self.sim = runtime.sim
        self.detect_ns = detect_ns
        self.events = []

    def binding_failed(self, binding, reason=""):
        """Schedule the detection callback for this failure epoch."""
        self.sim.schedule(
            self.detect_ns, self._detect, binding, reason, binding.failed_at
        )

    def binding_restored(self, binding):
        """Nothing to cancel: the epoch guard in :meth:`_detect` makes any
        pending detection for the restored epoch a no-op."""

    def _detect(self, binding, reason, failed_at):
        if not binding.failed or binding.failed_at != failed_at:
            return  # restored meanwhile (a re-failure has its own callback)
        if binding._failover_handled:
            return
        binding._failover_handled = True
        remapped, stranded, migrated = self.runtime.failover_remap(binding)
        self.events.append(
            FailoverEvent(
                host=self.runtime.host.name,
                datapath=binding.name,
                reason=reason,
                failed_at=failed_at,
                detected_at=self.sim.now,
                remapped=remapped,
                stranded=stranded,
                migrated=migrated,
            )
        )


class ControlPlane:
    """Shared discovery state for one deployment.

    Besides *who* subscribes to a channel, the control plane records *which
    datapath* each subscribing runtime bound the channel's stream to, so a
    publisher on a heterogeneous deployment can pick a technology the
    subscriber actually listens on (falling back to the kernel path, which
    every runtime keeps open).
    """

    def __init__(self):
        self._runtimes = {}   # ip -> runtime
        # ChannelKey -> ip -> {datapath_name: subscriber_count}
        self._subscriptions = defaultdict(lambda: defaultdict(dict))
        # (key, local_ip) -> remote subscriber list; publishers consult
        # their cached view per emitted message, while membership changes
        # (rare, out of band) invalidate it wholesale
        self._remote_cache = {}

    # -- runtime membership ----------------------------------------------

    def register_runtime(self, runtime):
        ip = runtime.host.ip
        if ip in self._runtimes:
            raise ValueError("a runtime is already registered at %s" % ip)
        self._runtimes[ip] = runtime

    def unregister_runtime(self, runtime):
        self._runtimes.pop(runtime.host.ip, None)
        for subscribers in self._subscriptions.values():
            subscribers.pop(runtime.host.ip, None)
        self._remote_cache.clear()

    def runtime_at(self, ip):
        return self._runtimes.get(ip)

    @property
    def runtimes(self):
        return list(self._runtimes.values())

    # -- channel subscriptions ---------------------------------------------

    def subscribe(self, key, runtime, datapath="udp"):
        counts = self._subscriptions[key][runtime.host.ip]
        counts[datapath] = counts.get(datapath, 0) + 1
        self._remote_cache.clear()

    def unsubscribe(self, key, runtime, datapath="udp"):
        subscribers = self._subscriptions.get(key)
        if subscribers is None:
            return
        counts = subscribers.get(runtime.host.ip)
        if counts is None:
            return
        if datapath in counts:
            counts[datapath] -= 1
            if counts[datapath] <= 0:
                del counts[datapath]
        if not counts:
            del subscribers[runtime.host.ip]
        if not subscribers:
            del self._subscriptions[key]
        self._remote_cache.clear()

    def remote_subscribers(self, key, local_ip):
        """``(ip, frozenset(datapaths))`` of remote runtimes on ``key``.

        Consulted once per emitted message, so the computed view is cached
        until the next membership change.  Callers must not mutate the
        returned list.
        """
        cache_key = (key, local_ip)
        cached = self._remote_cache.get(cache_key)
        if cached is None:
            subscribers = self._subscriptions.get(key, {})
            cached = self._remote_cache[cache_key] = [
                (ip, frozenset(counts))
                for ip, counts in sorted(subscribers.items())
                if ip != local_ip
            ]
        return cached

    def has_subscribers(self, key):
        return bool(self._subscriptions.get(key))
