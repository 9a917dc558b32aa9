"""Exceptions raised by the INSANE middleware.

Every failure surfaced by the public API is a subclass of
:class:`InsaneError` and carries a paper-style integer code: the value a C
binding of Fig. 2 would return from the call that
:class:`~repro.core.session.Session` raises in (``Session(...)`` for
``init_session``, then ``emit_data`` and the rest by name).  Python
callers catch the typed exception; bindings and logs use ``exc.code``.
The full code space lives in :data:`ERROR_CODES`.
"""

#: success code of the paper's C-style API (never raised, by definition).
INSANE_OK = 0


class InsaneError(RuntimeError):
    """Base class for middleware-level errors.

    :attr:`code` is the paper-style integer error code; subclasses override
    the class default, and an instance-level override may be passed at
    construction for call sites that need a more specific code.
    """

    code = 1  # generic middleware error

    def __init__(self, *args, code=None):
        super().__init__(*args)
        if code is not None:
            self.code = code


class SessionError(InsaneError):
    """Raised on API misuse: closed sessions, foreign buffers, etc."""

    code = 10


class PoolExhaustedError(InsaneError):
    """Raised when a memory pool has no free slots and the caller asked
    for a non-blocking allocation."""

    code = 20


class BufferLifecycleError(InsaneError):
    """Raised on double-release, use-after-release, or emit of a foreign
    buffer."""

    code = 21


class NoDatapathError(InsaneError):
    """Raised when a QoS mapping strategy yields a datapath that is not
    available on the host and no fallback is permitted."""

    code = 30


class QosValidationError(InsaneError, ValueError):
    """Raised by :meth:`~repro.core.qos.QosPolicy.from_kwargs` (and
    ``from_dict``) on contradictory or unknown option combinations.

    Also a ``ValueError`` so call sites validating options generically
    keep working.
    """

    code = 31


class DatapathFailedError(InsaneError):
    """Raised when an operation requires a datapath binding that has been
    marked failed and not (yet) restored."""

    code = 40


class FailoverError(InsaneError):
    """Raised when a failed binding's streams cannot be re-mapped because
    no surviving datapath satisfies their policy."""

    code = 41


class FaultInjectionError(InsaneError):
    """Raised by :mod:`repro.faults` on invalid fault schedules (negative
    times, unknown targets, overlapping exclusive faults)."""

    code = 42


class TransferError(InsaneError):
    """Raised by the application-level reliable transport
    (:mod:`repro.apps.reliable`) on misuse or on exhausted retries."""

    code = 50


class UtcpError(InsaneError, ConnectionError):
    """Raised by the uTCP userspace transport on connection failures.

    Also a ``ConnectionError`` so pre-existing handlers written against
    the stdlib hierarchy keep working.
    """

    code = 51


class ScenarioError(InsaneError, ValueError):
    """A scenario document failed validation or could not be compiled.

    Carries ``path`` — the dotted location inside the document
    (``"workload.size"``, ``"faults[2].kind"``) — so a bad corpus file
    points at the offending line, not at a stack trace.  Also a
    ``ValueError`` for callers treating specs as plain bad input.
    """

    code = 60

    def __init__(self, message, path=None, source=None):
        location = ""
        if source and path:
            location = "%s: %s: " % (source, path)
        elif path:
            location = "%s: " % (path,)
        elif source:
            location = "%s: " % (source,)
        super().__init__("%s%s" % (location, message))
        self.path = path
        self.source = source


class TopologyError(InsaneError, ValueError):
    """A topology is mis-wired: an unreachable host, a switch table that
    routes a destination back out its ingress port, or a generated-fabric
    spec that cannot be built.

    Raised at *bind/build time* — a frame silently dropped at runtime
    because a forwarding table never learned its destination is a wiring
    bug, not traffic, and must fail the build loudly instead.  Also a
    ``ValueError`` so callers validating specs generically keep working.
    """

    code = 61


class LoadgenError(InsaneError):
    """A closed-loop load-generation run could not produce trusted stats."""

    code = 70


class StabilityError(LoadgenError):
    """No acceptable stable measurement region was found.

    Raised by the windowed measurement layer when the warmup/stable
    window plan yields too few windows that agree with each other (or no
    completions at all) — accepting such a run would report noise as a
    steady-state figure.
    """

    code = 71


class InteractiveLawError(LoadgenError):
    """The interactive response-time law failed inside a stable window.

    Every closed-loop run self-checks ``|N - X*(R+Z)| / N <= epsilon``
    per accepted window; a violation means the simulator's own
    accounting (clients, throughput, response and think times) is
    inconsistent and none of the run's numbers should be trusted.
    """

    code = 72


#: name -> paper-style integer code, the full error-code space of the API.
ERROR_CODES = {
    "INSANE_OK": INSANE_OK,
    "InsaneError": InsaneError.code,
    "SessionError": SessionError.code,
    "PoolExhaustedError": PoolExhaustedError.code,
    "BufferLifecycleError": BufferLifecycleError.code,
    "NoDatapathError": NoDatapathError.code,
    "QosValidationError": QosValidationError.code,
    "DatapathFailedError": DatapathFailedError.code,
    "FailoverError": FailoverError.code,
    "FaultInjectionError": FaultInjectionError.code,
    "TransferError": TransferError.code,
    "UtcpError": UtcpError.code,
    "ScenarioError": ScenarioError.code,
    "TopologyError": TopologyError.code,
    "LoadgenError": LoadgenError.code,
    "StabilityError": StabilityError.code,
    "InteractiveLawError": InteractiveLawError.code,
}
