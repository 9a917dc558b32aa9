"""INSANE core: the middleware runtime and client library.

This package is the paper's primary contribution:

* :mod:`repro.core.qos` — stream QoS policies and the runtime mapping of
  policies onto datapaths (paper §5.2);
* :mod:`repro.core.memory` — the memory manager: shared pools of fixed-size
  slots enabling technology-agnostic zero-copy transfers (paper §5.3);
* :mod:`repro.core.ipc` — lock-free token rings between the client library
  and the runtime;
* :mod:`repro.core.scheduler` — the transmit scheduler, one per datapath
  binding: FIFO, with IEEE 802.1Qbv (TSN) time-aware priority;
* :mod:`repro.core.polling` — the pool of polling threads driving datapath
  plugins;
* :mod:`repro.core.channel` — streams, channels, sources, and sinks;
* :mod:`repro.core.runtime` — the per-host runtime process;
* :mod:`repro.core.session` — the client library exposing the paper's
  Fig. 2 API.
"""

from repro.core.errors import (
    BufferLifecycleError,
    DatapathFailedError,
    ERROR_CODES,
    FailoverError,
    FaultInjectionError,
    InsaneError,
    InteractiveLawError,
    LoadgenError,
    NoDatapathError,
    PoolExhaustedError,
    QosValidationError,
    ScenarioError,
    SessionError,
    StabilityError,
    TransferError,
    UtcpError,
)
from repro.core.outcomes import EmitOutcome
from repro.core.qos import (
    Acceleration,
    DEFAULT_STRATEGY,
    MappingDecision,
    QosPolicy,
    ResourceBudget,
    TimeSensitivity,
)
from repro.core.control import FailoverEvent, HealthMonitor
from repro.core.memory import Buffer, MemoryManager, SlotPool
from repro.core.runtime import InsaneDeployment, InsaneRuntime
from repro.core.session import Session
from repro.core.window import OutstandingWindow

__all__ = [
    "Acceleration",
    "Buffer",
    "BufferLifecycleError",
    "DEFAULT_STRATEGY",
    "DatapathFailedError",
    "ERROR_CODES",
    "EmitOutcome",
    "FailoverError",
    "FailoverEvent",
    "FaultInjectionError",
    "HealthMonitor",
    "InsaneDeployment",
    "InsaneError",
    "InsaneRuntime",
    "InteractiveLawError",
    "LoadgenError",
    "MappingDecision",
    "MemoryManager",
    "NoDatapathError",
    "OutstandingWindow",
    "PoolExhaustedError",
    "QosPolicy",
    "QosValidationError",
    "Session",
    "SessionError",
    "SlotPool",
    "StabilityError",
    "TimeSensitivity",
    "TransferError",
    "UtcpError",
]
