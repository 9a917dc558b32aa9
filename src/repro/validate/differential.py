"""The differential oracle: fast engine vs legacy engine, bit for bit.

:func:`compare_spec` executes one seeded workload on
:class:`repro.simnet.Simulator` and :class:`repro.simnet.legacy.LegacySimulator`
(both driving the one application stack, which must make them
bit-identical) and compares the canonical traces; the sweep over many
seeds is :func:`repro.validate.parallel.parallel_differential`.  Any
mismatch is reported as a :class:`Divergence` naming the first differing
canonical event and the reproducer seed, so a failure shrinks to::

    insane validate repro --seed <seed>

``perturb`` deliberately scales one cost-model stage on the *fast* side
only; the oracle must then fail at the first charge through the perturbed
stage — the self-test proving the comparison has no blind spots.
"""

from dataclasses import dataclass
from typing import Optional

from repro.hw.profiles import PROFILES
from repro.validate.workloads import run_spec


@dataclass
class Divergence:
    """The first observable difference between two runs of one spec."""

    seed: int
    spec: object                   # WorkloadSpec
    index: Optional[int]           # first differing canonical line, or None
    fast_line: Optional[str]
    legacy_line: Optional[str]
    fast_digest: str
    legacy_digest: str

    def report(self):
        """A human-readable divergence report."""
        lines = [
            "DIVERGENCE seed=%d" % self.seed,
            "  spec: %s" % self.spec.describe(),
            "  repro: insane validate repro --seed %d" % self.seed,
            "  fast   digest %s" % self.fast_digest,
            "  legacy digest %s" % self.legacy_digest,
        ]
        if self.index is None:
            lines.append("  traces agree line-by-line but digests differ "
                         "(summary mismatch)")
        else:
            lines.append("  first differing canonical event (line %d):"
                         % self.index)
            lines.append("    fast:   %s" % (self.fast_line,))
            lines.append("    legacy: %s" % (self.legacy_line,))
            if "msg=" in (self.fast_line or "") or "msg=" in (self.legacy_line or ""):
                lines.append("    (msg= cites a lifecycle span id: look the "
                             "message up in the run's Chrome trace)")
        return "\n".join(lines)


def first_difference(fast_trace, legacy_trace):
    """Index + lines of the first differing canonical line, or None."""
    fast_lines = fast_trace.lines()
    legacy_lines = legacy_trace.lines()
    for index, (a, b) in enumerate(zip(fast_lines, legacy_lines)):
        if a != b:
            return index, a, b
    if len(fast_lines) != len(legacy_lines):
        index = min(len(fast_lines), len(legacy_lines))
        longer_fast = len(fast_lines) > len(legacy_lines)
        return (
            index,
            fast_lines[index] if longer_fast else "<end of trace>",
            "<end of trace>" if longer_fast else legacy_lines[index],
        )
    return None


def perturbed_profile(name, perturb):
    """``PROFILES[name]`` with one stage's costs scaled.

    ``perturb`` is ``"stage_key=factor"`` (e.g. ``"insane_ipc=1.01"``);
    every component of that stage's cost is multiplied by ``factor``.
    """
    base = PROFILES[name]
    if not perturb:
        return base
    stage_key, _, factor_text = perturb.partition("=")
    stage_key = stage_key.strip()
    factor = float(factor_text) if factor_text else 1.5
    stage = base.stages[stage_key]   # KeyError -> loud failure, by design
    scaled = type(stage)(
        fixed=stage.fixed * factor,
        per_pkt=stage.per_pkt * factor,
        per_byte=stage.per_byte * factor,
    )
    stages = dict(base.stages)
    stages[stage_key] = scaled
    return base.replace(stages=stages)


def compare_spec(spec, perturb=None):
    """Run ``spec`` on both engines; returns ``(Divergence | None, fast, legacy)``."""
    fast_profile = (
        perturbed_profile(spec.profile, perturb) if perturb else None
    )
    fast = run_spec(spec, engine="fast", profile=fast_profile)
    legacy = run_spec(spec, engine="legacy")
    if fast.trace == legacy.trace:
        return None, fast, legacy
    diff = first_difference(fast.trace, legacy.trace)
    if diff is None:
        index = fast_line = legacy_line = None
    else:
        index, fast_line, legacy_line = diff
    return (
        Divergence(
            seed=spec.seed,
            spec=spec,
            index=index,
            fast_line=fast_line,
            legacy_line=legacy_line,
            fast_digest=fast.trace.digest(),
            legacy_digest=legacy.trace.digest(),
        ),
        fast,
        legacy,
    )
