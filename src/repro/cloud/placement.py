"""Deterministic service placement over generated city regions.

The heavyweight :class:`~repro.cloud.orchestrator.EdgeOrchestrator` places
live containers on running INSANE deployments; this module is its
build-time counterpart for the generated city fabrics of
:mod:`repro.hw.generate`: given the candidate hosts of a region (plain
descriptor dicts, no simulator required), pick where each service
instance lands — least-loaded, acceleration-aware, capacity-bounded.

Both placers call :func:`least_loaded`, the one placement policy.
Everything here is a pure function of its inputs (ties broken by host
name), so the generator's placement is part of the topology plan: same
``(seed, spec)``, same placement, same digests.
"""


def least_loaded(candidates, load, capacity, requires_acceleration,
                 accelerated):
    """The least-loaded, acceleration-aware placement policy.

    A candidate is eligible when ``load(candidate)`` is below
    ``capacity`` and, if ``requires_acceleration``, ``accelerated(
    candidate)`` holds.  Returns the eligible candidate with the least
    load — the earliest in ``candidates`` on a tie — or ``None``.
    """
    eligible = [
        candidate for candidate in candidates
        if load(candidate) < capacity
        and (not requires_acceleration or accelerated(candidate))
    ]
    return min(eligible, key=load) if eligible else None


class RegionPlacer:
    """Least-loaded, acceleration-aware placement over candidate hosts.

    Candidates are plain dicts with at least ``name``; ``accelerated``
    (bool) marks hosts exposing a kernel-bypass datapath.  A service that
    ``requires_acceleration`` only lands on accelerated hosts; among the
    eligible, the host with the fewest placed services wins, ties broken
    by name so the outcome is order-independent.
    """

    def __init__(self, capacity_per_host=4):
        if capacity_per_host < 1:
            raise ValueError("capacity_per_host must be >= 1")
        self.capacity_per_host = capacity_per_host
        self._load = {}

    def load(self, host):
        return self._load.get(host["name"], 0)

    def place(self, service, hosts, requires_acceleration=False):
        """Place one ``service`` (a name) on the best of ``hosts``.

        Raises :class:`~repro.core.errors.TopologyError` when no host is
        eligible — an unplaceable service in a generated spec is a build
        bug, consistent with the switch table checks.
        """
        chosen = least_loaded(
            sorted(hosts, key=lambda host: host["name"]), self.load,
            self.capacity_per_host, requires_acceleration,
            lambda host: host.get("accelerated", False),
        )
        if chosen is None:
            from repro.core.errors import TopologyError

            raise TopologyError(
                "no host can take service %r (candidates: %d, "
                "requires_acceleration=%s)"
                % (service, len(hosts), requires_acceleration)
            )
        self._load[chosen["name"]] = self.load(chosen) + 1
        return chosen

    def placements(self):
        """host name -> placed-service count (for tests and reports)."""
        return dict(self._load)
