"""Hybrid-fidelity flow modeling: a fluid rate-envelope tier beside the
packet-accurate DES (DESIGN.md §15).

Hot flows stay per-packet; cold populations collapse into
:class:`FluidAggregate` objects drained by one periodic engine event,
with :class:`FidelityController` moving subscribers across the boundary
as their rate crosses a threshold.  :func:`run_hybrid_fanout` is the
driver behind ``insane bench fanout`` and the scenario DSL's
``subscribers`` fan-out mode; :mod:`repro.validate.fanout` bounds the
fluid tier's error against full DES.
"""

from repro.fluid.aggregate import (
    MODE_ANALYTIC,
    MODE_PIGGYBACK,
    FluidAbsorber,
    FluidAggregate,
)
from repro.fluid.controller import FidelityController
from repro.fluid.envelope import Envelope, calibrate_envelope
from repro.fluid.fanout import drive_fanout_scenario, run_hybrid_fanout

__all__ = [
    "MODE_ANALYTIC",
    "MODE_PIGGYBACK",
    "Envelope",
    "FidelityController",
    "FluidAbsorber",
    "FluidAggregate",
    "calibrate_envelope",
    "drive_fanout_scenario",
    "run_hybrid_fanout",
]
