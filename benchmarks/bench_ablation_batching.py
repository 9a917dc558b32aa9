"""Ablation A3: opportunistic batching (paper §6.2).

The paper attributes INSANE fast's Fig. 8a advantage over Catnip to
sender-side opportunistic batching: "messages ready for send are sent as a
batch, but never waiting for a fixed-size batch to fill up".  Disabling it
must cost a large fraction of throughput while leaving latency intact.
"""

import pytest

from repro.bench.ablations import run_ablation_batching
from repro.bench.harness import run_pingpong
from repro.core.config import RuntimeConfig


def test_ablation_batching_throughput(once):
    results = once(run_ablation_batching, messages=6000)
    assert results["no-batching"] < 0.6 * results["batching"]


def test_batching_does_not_harm_latency(once):
    """Opportunistic: a lone packet is never held back for a batch."""

    def measure():
        batched = run_pingpong("insane_fast", rounds=300, size=64)
        unbatched = run_pingpong(
            "insane_fast",
            rounds=300,
            size=64,
            config=RuntimeConfig(tx_burst=1),
        )
        return batched.mean, unbatched.mean

    batched_mean, unbatched_mean = once(measure)
    assert batched_mean == pytest.approx(unbatched_mean, rel=0.05)
