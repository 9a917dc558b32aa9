"""Reproduction of INSANE: a unified middleware for QoS-aware network
acceleration in edge cloud computing (ACM Middleware 2023).

Importing ``repro`` loads nothing else: each entry point imports the
submodules it runs, so a city run or a partition worker never loads the
middleware (``repro.core``, ``repro.datapaths``).  Import from the
subpackages::

    from repro.core import QosPolicy, Session
    from repro.core.runtime import InsaneDeployment
    from repro.hw import Testbed

See README.md for the architecture tour, DESIGN.md for the substitution
strategy behind the simulation substrate, and EXPERIMENTS.md for paper-vs-
measured results of every table and figure.
"""

__version__ = "1.0.0"
