"""Containers: isolated applications attaching to a co-located runtime."""

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core import QosPolicy, Session


class ContainerState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    STOPPED = "stopped"


@dataclass(frozen=True)
class ContainerSpec:
    """What the image needs from the platform.

    ``entrypoint`` receives ``(container, session, stream)`` and returns a
    generator — the container's main process.  ``requires_acceleration``
    constrains placement; ``slot_quota`` caps the shared-memory slots the
    container may hold (tenant isolation).
    """

    name: str
    entrypoint: Callable
    policy: QosPolicy = field(default_factory=QosPolicy.fast)
    stream_name: str = "default"
    requires_acceleration: bool = False
    slot_quota: Optional[int] = None


class Container:
    """One running (or runnable) instance of a spec.

    ``container_id`` is ``None`` until the first :meth:`start`, which
    numbers the container from that runtime's simulation ids.
    """

    def __init__(self, spec):
        self.spec = spec
        self.container_id = None
        self.state = ContainerState.PENDING
        self.node = None
        self.session = None
        self.stream = None
        self.process = None
        self.incarnations = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self, runtime):
        """Attach to ``runtime`` and launch the entrypoint process."""
        if self.state is ContainerState.RUNNING:
            raise RuntimeError("%s is already running" % self.container_id)
        if self.container_id is None:
            self.container_id = "%s-%d" % (self.spec.name, next(runtime.sim.ids))
        self.incarnations += 1
        self.session = Session(
            runtime,
            "%s#%d" % (self.container_id, self.incarnations),
            slot_quota=self.spec.slot_quota,
        )
        self.stream = self.session.create_stream(
            self.spec.policy, name=self.spec.stream_name
        )
        body = self.spec.entrypoint(self, self.session, self.stream)
        if body is not None:
            self.process = runtime.sim.process(body, name=self.container_id)
        self.node = runtime
        self.state = ContainerState.RUNNING
        return self

    def stop(self):
        """Detach from the runtime, reclaiming every held slot."""
        if self.state is not ContainerState.RUNNING:
            return 0
        if self.process is not None and not self.process.finished:
            self.process.interrupt(ContainerStopped(self.container_id))
        leaked = self.session.close()
        self.session = None
        self.stream = None
        self.process = None
        self.node = None
        self.state = ContainerState.STOPPED
        return leaked

    @property
    def datapath(self):
        """The technology INSANE bound this incarnation's stream to."""
        return self.stream.datapath if self.stream is not None else None

    def __repr__(self):
        where = self.node.host.name if self.node is not None else "-"
        return "Container(%s, %s on %s)" % (self.container_id, self.state.value, where)


class ContainerStopped(Exception):
    """Delivered into a container's main process when it is stopped."""
