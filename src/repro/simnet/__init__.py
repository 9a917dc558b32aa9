"""Discrete-event simulation (DES) kernel used as the substrate of the repo.

The paper evaluates INSANE on physical 100 Gbps testbeds; this package
provides the from-scratch simulation kernel on which all hardware, datapath,
and middleware models in :mod:`repro` run.  It is deliberately small and
dependency-free: a time-ordered event heap (:class:`Simulator`), cooperative
generator-based processes (:class:`Process`), and a handful of synchronization
primitives (:class:`Signal`, :class:`Store`, :class:`Resource`).

Time is measured in nanoseconds throughout the repository.
"""

from repro.simnet.errors import (
    DegenerateWindowError,
    SimulationError,
    StoreFullError,
)
from repro.simnet.events import Signal
from repro.simnet.engine import PeriodicHandle, Simulator
from repro.simnet.process import (
    AnyOf, Get, Join, Process, Put, Timeout, TimeoutAt, Wait,
)
from repro.simnet.resources import Resource, Store
from repro.simnet.monitor import Counter, RateMeter, Tally

__all__ = [
    "AnyOf",
    "Counter",
    "DegenerateWindowError",
    "Get",
    "Join",
    "PeriodicHandle",
    "Process",
    "Put",
    "RateMeter",
    "Resource",
    "Signal",
    "SimulationError",
    "Simulator",
    "Store",
    "StoreFullError",
    "Tally",
    "Timeout",
    "TimeoutAt",
    "Wait",
]
