"""Envelope calibration tests: the fluid tier's analytic stand-in must
agree with the profile scalars and the Fig. 6 breakdown it is derived
from."""

import pytest

from repro.bench.breakdown import run_breakdown
from repro.fluid import calibrate_envelope
from repro.hw.profiles import PROFILES
from repro.obs.probe import COMPONENTS as STAGES


@pytest.fixture(scope="module")
def envelope():
    return calibrate_envelope(profile="local", size=512, seed=7919)


class TestCalibration:
    def test_stage_means_cover_the_fig6_decomposition(self, envelope):
        assert set(envelope.stage_ns) == set(STAGES)
        assert all(envelope.stage_ns[stage] > 0.0 for stage in STAGES)
        # one-way latency is at least the sum of its parts minus jitter;
        # sanity: within 2x either way
        total = sum(envelope.stage_ns.values())
        assert 0.5 * total <= envelope.one_way_ns <= 2.0 * total

    def test_scalars_come_from_the_profile(self, envelope):
        prof = PROFILES["local"]
        assert envelope.fanout_per_sink_ns == \
            prof.scalar("insane_fanout_per_sink_ns")
        assert envelope.l2_ring_budget == \
            prof.scalar("insane_l2_ring_budget")
        assert envelope.ipc_half_ns == \
            prof.stage("insane_ipc").cost(0, burst=1) / 2.0

    def test_deterministic_for_a_seed(self):
        first = calibrate_envelope(profile="local", size=512, seed=7919)
        second = calibrate_envelope(profile="local", size=512, seed=7919)
        assert first.to_dict() == second.to_dict()


class TestFanoutService:
    def test_zero_and_one_subscriber_cost_nothing_extra(self, envelope):
        assert envelope.fanout_service_ns(0) == 0.0
        # one sink: no per-sink replication, possibly no L2 pressure
        assert envelope.fanout_service_ns(1) <= envelope.fanout_service_ns(2)

    def test_l2_cliff_kicks_in_past_the_ring_budget(self, envelope):
        budget = envelope.l2_ring_budget
        inside = envelope.fanout_service_ns(budget)
        past = envelope.fanout_service_ns(budget + 10)
        linear = envelope.fanout_per_sink_ns * 10
        assert past - inside > linear  # super-linear beyond the budget

    def test_safe_interval_grows_with_population_and_floors(self, envelope):
        assert envelope.safe_interval_ns(1) >= 1000.0
        assert envelope.safe_interval_ns(100_000) > \
            envelope.safe_interval_ns(100)


class TestFromBreakdown:
    def test_halves_the_rtt_convention(self, envelope):
        # Fig. 6 runs the same probe: its RTT components are the
        # envelope's one-way stage means doubled, exactly
        components = run_breakdown("local", messages=envelope.messages,
                                   size=512, seed=7919)
        for stage in STAGES:
            assert components[stage] == 2 * envelope.stage_ns[stage] / 1000.0

    def test_serialization_round_trip_keys(self, envelope):
        data = envelope.to_dict()
        assert data["datapath"] == "dpdk"
        assert set(data["stage_ns"]) == set(STAGES)
        assert data == type(envelope)(**data).to_dict()
