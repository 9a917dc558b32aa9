"""Network Acceleration as a Service: containers on an edge cloud.

The paper's §8 ("Cloud integration") sketches the deployment model this
package implements: application components run in isolated *containers*
that attach to the co-located INSANE runtime over shared memory, gaining
"transparent access to the network acceleration options available at the
specific deployment site" — and can be stopped, moved, and restarted on a
different site by an orchestrator, with INSANE re-binding their streams to
whatever that site offers.

Import from the submodules: :mod:`repro.cloud.container` (``Container``,
``ContainerSpec``, ``ContainerState``), :mod:`repro.cloud.orchestrator`
(``EdgeOrchestrator``, ``PlacementError``) and
:mod:`repro.cloud.placement` (``RegionPlacer``, ``least_loaded``).  The
package root imports none of them: the city generator uses only the
placement policy, which needs no middleware, while a container attaches
to a runtime through :mod:`repro.core`.
"""
