"""Runtime configuration knobs."""

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class RuntimeConfig:
    """Tunables of one INSANE runtime instance.

    ``thread_mapping`` controls how datapath plugins map onto polling
    threads (paper §5.3): ``"per-datapath"`` pins one thread per plugin
    (the evaluation setup, best performance); ``"shared"`` multiplexes all
    plugins onto a single thread (lowest resource usage, lower
    performance).

    What is not a field is fixed for every run: pool and ring sizes and
    the RX burst come from the hardware profile's scalars, jumbo frames
    are on, the kernel path always listens, the TSN scheduler runs its
    default gate list, and the health monitor detects a failed datapath
    after :data:`~repro.core.control.FAILOVER_DETECT_NS`.
    """

    thread_mapping: str = "per-datapath"     # or "shared"
    #: polling threads per datapath plugin (paper §8 proposes >1 to relieve
    #: the CPU-bound receive pipeline); only meaningful with "per-datapath"
    threads_per_datapath: int = 1
    #: override profile insane_tx_burst; 1 disables opportunistic
    #: batching (the Fig. 8a ablation)
    tx_burst: Optional[int] = None
    mapping_strategy: Optional[Callable] = None  # custom QoS mapping
    #: scheduler for best-effort traffic: "fifo" (paper default), "drr"
    #: (per-application byte fairness), or "priority"
    best_effort_scheduler: str = "fifo"
    #: optional AccessController enforcing per-stream publish/subscribe
    #: rights at endpoint creation (paper §8, Security)
    access_controller: object = None
    trace: bool = False                       # per-packet breakdown stamps
    #: optional repro.obs.LifecycleTracer collecting span-based lifecycle
    #: traces; implies per-message records even where ``trace`` is off.
    #: Shared by every runtime of a deployment (the timeline is global).
    tracer: object = None

    def __post_init__(self):
        if self.thread_mapping not in ("per-datapath", "shared"):
            raise ValueError(
                "thread_mapping must be 'per-datapath' or 'shared', got %r"
                % (self.thread_mapping,)
            )
        if self.threads_per_datapath < 1:
            raise ValueError("threads_per_datapath must be >= 1")
        if self.best_effort_scheduler not in ("fifo", "drr", "priority"):
            raise ValueError(
                "best_effort_scheduler must be fifo, drr, or priority; got %r"
                % (self.best_effort_scheduler,)
            )
