"""Tests for single-core ATM equilibrium and safety probing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atm.core_sim import SafetyProbe, equilibrium_frequency_mhz
from repro.errors import ConfigurationError
from repro.units import DEFAULT_ATM_IDLE_MHZ
from repro.workloads.base import IDLE
from repro.workloads.spec import GCC, X264
from repro.workloads.ubench import COREMARK


class TestEquilibriumFrequency:
    def test_reducing_delay_raises_frequency(self, testbed):
        chip = testbed.chips[0]
        core = chip.cores[0]
        freqs = [
            equilibrium_frequency_mhz(chip, core, steps)
            for steps in range(core.preset_code + 1)
        ]
        assert all(b >= a for a, b in zip(freqs, freqs[1:]))

    def test_droop_lowers_frequency(self, testbed):
        chip = testbed.chips[0]
        core = chip.cores[0]
        nominal = equilibrium_frequency_mhz(chip, core, 0, vdd=1.25)
        drooped = equilibrium_frequency_mhz(chip, core, 0, vdd=1.15)
        assert drooped < nominal

    def test_heat_lowers_frequency(self, testbed):
        chip = testbed.chips[0]
        core = chip.cores[0]
        cool = equilibrium_frequency_mhz(chip, core, 0, temperature_c=45.0)
        hot = equilibrium_frequency_mhz(chip, core, 0, temperature_c=70.0)
        assert hot < cool

    def test_excess_reduction_rejected(self, testbed):
        chip = testbed.chips[0]
        core = chip.cores[0]
        with pytest.raises(ConfigurationError):
            equilibrium_frequency_mhz(chip, core, core.preset_code + 1)

    def test_default_equilibrium_near_uniform_target(self, testbed):
        """At the idle operating point every core sits near 4600 MHz."""
        from repro.silicon.chipspec import idle_operating_point

        vdd, temp = idle_operating_point()
        for chip in testbed.chips:
            for core in chip.cores:
                freq = equilibrium_frequency_mhz(chip, core, 0, vdd, temp)
                assert freq == pytest.approx(DEFAULT_ATM_IDLE_MHZ, abs=2.0)


class TestSafetyProbe:
    def test_noise_free_probe_matches_ground_truth(self, testbed):
        core = testbed.chips[0].cores[0]
        probe = SafetyProbe(np.random.default_rng(0), noise_sigma_ps=0.0)
        limit = core.max_safe_reduction(IDLE.stress)
        assert probe.probe(core, limit, IDLE).safe
        assert not probe.probe(core, limit + 1, IDLE).safe

    def test_failing_probe_carries_mode(self, testbed):
        core = testbed.chips[0].cores[0]
        probe = SafetyProbe(np.random.default_rng(0), noise_sigma_ps=0.0)
        result = probe.probe(core, core.preset_code, X264)
        assert not result.safe
        assert result.failure_mode is not None
        assert result.slack_ps < 0.0

    def test_max_safe_reduction_walk(self, testbed):
        core = testbed.chips[0].cores[0]
        probe = SafetyProbe(np.random.default_rng(1), noise_sigma_ps=0.0)
        assert probe.max_safe_reduction(core, IDLE) == core.max_safe_reduction(0.0)

    def test_rollback_from_aggressive_start(self, testbed):
        core = testbed.chips[0].cores[0]
        probe = SafetyProbe(np.random.default_rng(2), noise_sigma_ps=0.0)
        idle_limit = core.max_safe_reduction(0.0)
        safe = probe.rollback_to_safe(core, X264, start=idle_limit)
        assert safe == core.max_safe_reduction(X264.stress)

    def test_rollback_no_op_when_already_safe(self, testbed):
        core = testbed.chips[0].cores[0]
        probe = SafetyProbe(np.random.default_rng(3), noise_sigma_ps=0.0)
        ubench_limit = core.max_safe_reduction(COREMARK.stress)
        assert probe.rollback_to_safe(core, GCC, start=0) == 0
        assert (
            probe.rollback_to_safe(core, COREMARK, start=ubench_limit)
            == ubench_limit
        )

    def test_noise_produces_tight_distributions(self, testbed):
        """Repeated searches span at most a couple of configurations."""
        core = testbed.chips[0].cores[0]
        outcomes = set()
        for trial in range(30):
            probe = SafetyProbe(np.random.default_rng(trial), noise_sigma_ps=0.1)
            outcomes.add(probe.max_safe_reduction(core, IDLE))
        assert len(outcomes) <= 2

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_negative_noise_rejected(self, sigma):
        with pytest.raises(ConfigurationError):
            SafetyProbe(np.random.default_rng(0), noise_sigma_ps=sigma)

    def test_start_validated(self, testbed):
        core = testbed.chips[0].cores[0]
        probe = SafetyProbe(np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            probe.max_safe_reduction(core, IDLE, start=core.preset_code + 1)

    @pytest.mark.parametrize("repeats", [0, -1])
    @pytest.mark.parametrize("walk", ["max_safe_reduction", "rollback_to_safe"])
    def test_repeats_validated(self, testbed, walk, repeats):
        core = testbed.chips[0].cores[0]
        probe = SafetyProbe(np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            getattr(probe, walk)(core, X264, start=3, repeats_per_step=repeats)
        assert probe.probe_count == 0

    def test_walk_from_the_preset_top_runs_no_probe(self, testbed):
        core = testbed.chips[0].cores[0]
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        probe = SafetyProbe(rng)
        top = core.preset_code
        assert probe.max_safe_reduction(core, IDLE, start=top) == top
        assert probe.probe_count == 0
        assert rng.bit_generator.state == before

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_limit_ordering_under_any_seed(self, testbed, seed):
        """idle >= x264 limit regardless of probe noise realization."""
        core = testbed.chips[0].cores[3]
        probe = SafetyProbe(np.random.default_rng(seed), noise_sigma_ps=0.1)
        idle_limit = probe.max_safe_reduction(core, IDLE)
        x264_limit = probe.rollback_to_safe(core, X264, start=idle_limit)
        assert x264_limit <= idle_limit
