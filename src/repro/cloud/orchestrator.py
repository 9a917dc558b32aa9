"""The edge orchestrator: placement and live relocation of containers."""

from repro.cloud.container import ContainerState
from repro.cloud.placement import least_loaded


class PlacementError(RuntimeError):
    """No node satisfies a container's requirements."""


class EdgeOrchestrator:
    """Places containers on an :class:`~repro.core.runtime.InsaneDeployment`.

    Placement policy (:func:`~repro.cloud.placement.least_loaded`): a
    container that *requires* acceleration only goes to nodes exposing an
    accelerated datapath; among the candidates, the one with the fewest
    running containers wins, the first in deployment order on a tie.
    """

    def __init__(self, deployment, capacity_per_node=16):
        self.deployment = deployment
        self.capacity_per_node = capacity_per_node
        self.containers = {}
        self._placements = {name: [] for name in deployment.runtimes}

    # -- queries ------------------------------------------------------------

    def nodes(self):
        return list(self.deployment.runtimes.values())

    def load(self, runtime):
        return len(self._placements[runtime.host.name])

    def accelerated(self, runtime):
        available = runtime.available_datapaths()
        return bool(available & {"dpdk", "xdp", "rdma"})

    # -- placement -----------------------------------------------------------

    def deploy(self, container, node=None):
        """Start ``container`` on ``node`` or on the best candidate."""
        spec = container.spec
        if node is None:
            node = least_loaded(self.nodes(), self.load,
                                self.capacity_per_node,
                                spec.requires_acceleration, self.accelerated)
            if node is None:
                raise PlacementError(
                    "no node satisfies %r (requires_acceleration=%s)"
                    % (spec.name, spec.requires_acceleration)
                )
        elif spec.requires_acceleration and not self.accelerated(node):
            raise PlacementError(
                "%s lacks acceleration required by %r" % (node.host.name, spec.name)
            )
        container.start(node)
        self.containers[container.container_id] = container
        self._placements[node.host.name].append(container)
        return node

    def migrate(self, container, to_node):
        """Relocate a running container; returns the relocation downtime (ns).

        Stop-and-copy: the container detaches from its current runtime and
        reattaches at ``to_node``; INSANE re-binds its stream to whatever
        that node offers (the paper's seamless-migration story, §1/§8).
        """
        if container.state is not ContainerState.RUNNING:
            raise RuntimeError("can only migrate a running container")
        if container.spec.requires_acceleration and not self.accelerated(to_node):
            raise PlacementError(
                "%s lacks acceleration required by %r"
                % (to_node.host.name, container.spec.name)
            )
        sim = to_node.sim
        started = sim.now
        old_node = container.node
        self._placements[old_node.host.name].remove(container)
        container.stop()
        container.start(to_node)
        self._placements[to_node.host.name].append(container)
        return sim.now - started

    def stop(self, container):
        """Stop a managed container and free its placement slot."""
        if container.node is not None:
            self._placements[container.node.host.name].remove(container)
        container.stop()
        self.containers.pop(container.container_id, None)

    def stats(self):
        """Per-node placement summary."""
        return {
            name: [c.container_id for c in containers]
            for name, containers in self._placements.items()
        }
