"""Stream QoS policies and the policy-to-datapath mapping (paper §5.2).

INSANE deliberately keeps the option set minimal: three per-stream policies
(datapath acceleration, tolerable resource consumption, time sensitivity).
The runtime maps them to the *most appropriate* technology available on the
host at stream-creation time; the mapping is a best-effort hint, and when
acceleration is requested but unavailable INSANE falls back to the kernel
stack and warns the user.
"""

import enum
from dataclasses import dataclass
from typing import Optional


class Acceleration(enum.Enum):
    """Does this data flow require datapath acceleration?"""

    NONE = "none"            # paper: "slow" — kernel networking suffices
    ACCELERATED = "fast"     # paper: "fast" — use a kernel-bypassing path


class ResourceBudget(enum.Enum):
    """Is resource usage a concern when choosing an accelerated path?"""

    UNCONSTRAINED = "unconstrained"   # busy-polling cores are acceptable
    CONSTRAINED = "constrained"       # avoid spinning cores (prefer XDP)


class TimeSensitivity(enum.Enum):
    """Packet scheduling strategy for the stream's packets."""

    BEST_EFFORT = "best-effort"       # FIFO scheduler
    TIME_SENSITIVE = "time-sensitive"  # IEEE 802.1Qbv time-aware scheduler


@dataclass(frozen=True)
class QosPolicy:
    """The QoS options attached to a stream (``options_t`` in Fig. 2)."""

    acceleration: Acceleration = Acceleration.NONE
    resources: ResourceBudget = ResourceBudget.UNCONSTRAINED
    time_sensitivity: TimeSensitivity = TimeSensitivity.BEST_EFFORT

    @classmethod
    def slow(cls, time_sensitive=False):
        """The paper's "slow" datapath QoS (kernel UDP)."""
        return cls(
            acceleration=Acceleration.NONE,
            time_sensitivity=(
                TimeSensitivity.TIME_SENSITIVE if time_sensitive else TimeSensitivity.BEST_EFFORT
            ),
        )

    @classmethod
    def fast(cls, constrained=False, time_sensitive=False):
        """The paper's "fast" datapath QoS (accelerated)."""
        return cls(
            acceleration=Acceleration.ACCELERATED,
            resources=(
                ResourceBudget.CONSTRAINED if constrained else ResourceBudget.UNCONSTRAINED
            ),
            time_sensitivity=(
                TimeSensitivity.TIME_SENSITIVE if time_sensitive else TimeSensitivity.BEST_EFFORT
            ),
        )

    @classmethod
    def from_kwargs(cls, **kwargs):
        """Build a validated policy from keyword options.

        Accepts enum members, their string values, or the boolean aliases
        used by :meth:`fast`/:meth:`slow`::

            QosPolicy.from_kwargs(acceleration="fast", constrained=True)
            QosPolicy.from_kwargs(acceleration=Acceleration.NONE,
                                  time_sensitive=True)

        Contradictory combinations (an alias disagreeing with its enum
        option, or a resource budget on a non-accelerated policy) raise
        :class:`~repro.core.errors.QosValidationError` — the typed
        replacement for silently assembling raw enums.
        """
        from repro.core.errors import QosValidationError

        known = {
            "acceleration", "resources", "time_sensitivity",
            "constrained", "time_sensitive",
        }
        unknown = set(kwargs) - known
        if unknown:
            raise QosValidationError(
                "unknown QoS option(s) %s; valid options: %s"
                % (sorted(unknown), sorted(known))
            )

        acceleration = _coerce(
            Acceleration, kwargs.get("acceleration"), {
                "fast": Acceleration.ACCELERATED,
                "accelerated": Acceleration.ACCELERATED,
                "slow": Acceleration.NONE,
                "none": Acceleration.NONE,
                True: Acceleration.ACCELERATED,
                False: Acceleration.NONE,
            },
        )
        resources = _coerce(
            ResourceBudget, kwargs.get("resources"), {
                "constrained": ResourceBudget.CONSTRAINED,
                "unconstrained": ResourceBudget.UNCONSTRAINED,
            },
        )
        time_sensitivity = _coerce(
            TimeSensitivity, kwargs.get("time_sensitivity"), {
                "time-sensitive": TimeSensitivity.TIME_SENSITIVE,
                "best-effort": TimeSensitivity.BEST_EFFORT,
            },
        )

        if "constrained" in kwargs:
            alias = (
                ResourceBudget.CONSTRAINED
                if kwargs["constrained"]
                else ResourceBudget.UNCONSTRAINED
            )
            if resources is not None and resources is not alias:
                raise QosValidationError(
                    "contradictory options: resources=%s but constrained=%r"
                    % (resources.value, kwargs["constrained"])
                )
            resources = alias
        if "time_sensitive" in kwargs:
            alias = (
                TimeSensitivity.TIME_SENSITIVE
                if kwargs["time_sensitive"]
                else TimeSensitivity.BEST_EFFORT
            )
            if time_sensitivity is not None and time_sensitivity is not alias:
                raise QosValidationError(
                    "contradictory options: time_sensitivity=%s but "
                    "time_sensitive=%r"
                    % (time_sensitivity.value, kwargs["time_sensitive"])
                )
            time_sensitivity = alias

        if acceleration is None:
            acceleration = Acceleration.NONE
        if acceleration is Acceleration.NONE and resources is ResourceBudget.CONSTRAINED:
            raise QosValidationError(
                "contradictory options: a constrained resource budget only "
                "applies to accelerated streams (the kernel path never spins "
                "cores); request acceleration='fast' or drop constrained"
            )
        return cls(
            acceleration=acceleration,
            resources=resources or ResourceBudget.UNCONSTRAINED,
            time_sensitivity=time_sensitivity or TimeSensitivity.BEST_EFFORT,
        )

    def to_dict(self):
        """The policy as a JSON-native dict of enum *values*.

        Round-trips through :meth:`from_dict`; the scenario DSL stores
        policies in exactly this shape.
        """
        return {
            "acceleration": self.acceleration.value,
            "resources": self.resources.value,
            "time_sensitivity": self.time_sensitivity.value,
        }

    @classmethod
    def from_dict(cls, options):
        """Build a validated policy from a JSON-native dict.

        Accepts everything :meth:`from_kwargs` accepts — enum members,
        enum *values* (``"fast"``), enum *names* in any case
        (``"ACCELERATED"``, ``"best_effort"``), and the boolean aliases —
        so a policy parsed from YAML/JSON needs no Python-side massaging.
        """
        from repro.core.errors import QosValidationError

        if not isinstance(options, dict):
            raise QosValidationError(
                "a QoS policy must be a dict of options, got %s"
                % type(options).__name__
            )
        return cls.from_kwargs(**options)


def _coerce(enum_cls, value, aliases):
    """Normalize ``value`` to an ``enum_cls`` member, or raise typed.

    Strings match, in order: an explicit alias, an enum *value*
    (``"best-effort"``), or an enum *name* in any case and with hyphens
    and underscores interchangeable (``"BEST_EFFORT"``, ``"best_effort"``)
    — the forms a YAML/JSON front end naturally produces.
    """
    from repro.core.errors import QosValidationError

    if value is None or isinstance(value, enum_cls):
        return value
    try:
        hashable = value if isinstance(value, (str, bool)) else None
        if hashable in aliases:
            return aliases[hashable]
        if isinstance(value, str):
            folded = value.strip().lower()
            if folded in aliases:
                return aliases[folded]
            for member in enum_cls:
                if folded in (
                    member.value,
                    member.name.lower(),
                    member.value.replace("-", "_"),
                    member.name.lower().replace("_", "-"),
                ):
                    return member
        return enum_cls(value)
    except (ValueError, TypeError):
        raise QosValidationError(
            "invalid %s value %r; expected one of %s"
            % (
                enum_cls.__name__,
                value,
                sorted({str(k) for k in aliases} | {m.value for m in enum_cls}),
            )
        ) from None


@dataclass(frozen=True)
class MappingDecision:
    """The outcome of mapping a stream's QoS onto a datapath."""

    datapath: str
    fallback: bool = False
    warning: Optional[str] = None


def default_strategy(policy, available):
    """The paper's default mapping (§5.2).

    * no acceleration required -> kernel UDP, always;
    * otherwise RDMA when present (best performance per resource);
    * otherwise DPDK when resource usage is not a concern;
    * otherwise XDP (no spinning cores);
    * if nothing accelerated is available -> kernel UDP, with a warning.
    """
    if policy.acceleration is Acceleration.NONE:
        return MappingDecision("udp")
    preference = ["rdma"]
    if policy.resources is ResourceBudget.UNCONSTRAINED:
        preference += ["dpdk", "xdp"]
    else:
        preference += ["xdp", "dpdk"]
    for name in preference:
        if name in available:
            return MappingDecision(name)
    return MappingDecision(
        "udp",
        fallback=True,
        warning=(
            "acceleration requested but no acceleration technology is "
            "available on this host; falling back to kernel UDP"
        ),
    )


#: The strategy used when the user supplies none.
DEFAULT_STRATEGY = default_strategy


def resolve_mapping(policy, available, strategy=None):
    """Apply ``strategy`` (or the default) and validate the result.

    A custom strategy may return either a datapath name or a full
    :class:`MappingDecision`; names that are not actually available raise
    :class:`~repro.core.errors.NoDatapathError` so misconfigured strategies
    fail loudly rather than silently degrading.
    """
    from repro.core.errors import NoDatapathError

    strategy = strategy or DEFAULT_STRATEGY
    decision = strategy(policy, frozenset(available))
    if isinstance(decision, str):
        decision = MappingDecision(decision)
    if decision.datapath not in available:
        raise NoDatapathError(
            "mapping strategy chose %r, which is unavailable (available: %s)"
            % (decision.datapath, sorted(available))
        )
    return decision
