"""Tests for chip specifications and the inverse-modeled testbed."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.silicon.chipspec import (
    ChipSpec,
    CorePowerSpec,
    CoreSpec,
    STRESS_THREAD_NORMAL,
    STRESS_THREAD_WORST,
    STRESS_UBENCH,
    TESTBED_IDLE_LIMITS,
    TESTBED_PRESET_CODES,
    TESTBED_THREAD_NORMAL_LIMITS,
    TESTBED_THREAD_WORST_LIMITS,
    TESTBED_UBENCH_LIMITS,
    core_label,
    draw_chip,
    power7plus_testbed,
    sample_chip,
    sample_server,
)
from repro.silicon.paths import PathTimingModel
from repro.units import CORES_PER_CHIP, NOMINAL_VDD


def _core(
    *,
    preset=5,
    widths=(2.0, 2.0, 2.0, 2.0, 2.0),
    headroom=7.0,
    curve=((0.0, 0.0), (0.25, 1.0), (0.6, 2.0), (1.0, 4.0)),
):
    return CoreSpec(
        label="T0C0",
        synth_path=PathTimingModel(base_delay_ps=180.0),
        preset_code=preset,
        step_widths_ps=widths,
        protection_headroom_ps=headroom,
        stress_curve=curve,
    )


class TestCoreSpecGeometry:
    def test_inserted_delay_cumulative(self):
        core = _core()
        assert core.inserted_delay_ps(0) == 0.0
        assert core.inserted_delay_ps(3) == pytest.approx(6.0)

    def test_reduction(self):
        core = _core()
        assert core.reduction_ps(2) == pytest.approx(4.0)

    def test_step_width_of_reduction(self):
        core = _core(widths=(1.0, 2.0, 3.0, 4.0, 5.0))
        # Reduction step 1 removes the width of the preset code (index 4).
        assert core.step_width_of_reduction(1) == pytest.approx(5.0)
        assert core.step_width_of_reduction(5) == pytest.approx(1.0)

    def test_reduction_bounds(self):
        core = _core()
        with pytest.raises(ConfigurationError):
            core.reduction_ps(6)
        with pytest.raises(ConfigurationError):
            core.reduction_ps(-1)

    def test_step_width_bounds(self):
        core = _core()
        with pytest.raises(ConfigurationError):
            core.step_width_of_reduction(0)
        with pytest.raises(ConfigurationError):
            core.step_width_of_reduction(6)


class TestCoreSpecSafety:
    def test_zero_stress_zero_requirement(self):
        assert _core().required_protection_ps(0.0) == 0.0

    def test_anchor_interpolation(self):
        core = _core()
        assert core.required_protection_ps(STRESS_UBENCH) == pytest.approx(1.0)
        assert core.required_protection_ps(STRESS_THREAD_NORMAL) == pytest.approx(2.0)
        assert core.required_protection_ps(STRESS_THREAD_WORST) == pytest.approx(4.0)

    def test_midpoint_interpolation(self):
        core = _core()
        mid = core.required_protection_ps(0.425)  # between 0.25 and 0.6
        assert 1.0 < mid < 2.0

    def test_extrapolation_beyond_worst(self):
        core = _core()
        assert core.required_protection_ps(1.2) > 4.0

    def test_requirement_monotone_in_stress(self):
        core = _core()
        previous = -1.0
        for stress in (0.0, 0.1, 0.25, 0.4, 0.6, 0.8, 1.0, 1.1):
            current = core.required_protection_ps(stress)
            assert current >= previous
            previous = current

    def test_negative_stress_rejected(self):
        with pytest.raises(ConfigurationError):
            _core().required_protection_ps(-0.1)

    def test_margin_slack_signs(self):
        core = _core()
        assert core.margin_slack_ps(0, 0.0) == pytest.approx(7.0)
        assert core.margin_slack_ps(3, 0.0) == pytest.approx(1.0)
        assert core.margin_slack_ps(4, 0.0) == pytest.approx(-1.0)

    def test_max_safe_reduction_idle(self):
        assert _core().max_safe_reduction(0.0) == 3

    def test_max_safe_reduction_decreases_with_stress(self):
        core = _core()
        limits = [core.max_safe_reduction(s) for s in (0.0, 0.25, 0.6, 1.0)]
        assert limits == sorted(limits, reverse=True)

    def test_stress_curve_must_start_at_origin(self):
        with pytest.raises(ConfigurationError):
            _core(curve=((0.1, 0.0), (1.0, 4.0)))

    def test_stress_curve_must_increase(self):
        with pytest.raises(ConfigurationError):
            _core(curve=((0.0, 0.0), (0.5, 2.0), (0.5, 3.0)))

    def test_stress_curve_requirement_must_not_decrease(self):
        with pytest.raises(ConfigurationError):
            _core(curve=((0.0, 0.0), (0.5, 2.0), (1.0, 1.0)))


class TestCorePowerSpec:
    def test_power_components(self):
        power = CorePowerSpec(leakage_w=1.0, ceff_w_per_ghz=2.0)
        total = power.power_w(freq_mhz=4000.0, activity=1.0)
        assert total == pytest.approx(1.0 + 2.0 * 4.0)

    def test_power_scales_with_activity(self):
        power = CorePowerSpec()
        assert power.power_w(4000.0, 1.0) > power.power_w(4000.0, 0.5)

    def test_power_scales_with_voltage_squared(self):
        power = CorePowerSpec(leakage_w=1.0, ceff_w_per_ghz=2.0)
        low = power.power_w(4000.0, 1.0, vdd=NOMINAL_VDD * 0.5)
        high = power.power_w(4000.0, 1.0, vdd=NOMINAL_VDD)
        # Both dynamic and leakage follow V^2 in this model.
        assert high == pytest.approx(4.0 * low)

    def test_leakage_rises_with_temperature(self):
        power = CorePowerSpec()
        assert power.power_w(4000.0, 0.0, temperature_c=70.0) > power.power_w(
            4000.0, 0.0, temperature_c=40.0
        )

    def test_negative_activity_rejected(self):
        with pytest.raises(ConfigurationError):
            CorePowerSpec().power_w(4000.0, -0.1)


class TestChipSpec:
    def test_duplicate_labels_rejected(self):
        core = _core()
        with pytest.raises(ConfigurationError):
            ChipSpec(chip_id="X", cores=(core, core))

    def test_lookup_by_label(self, testbed):
        chip = testbed.chips[0]
        assert chip.core("P0C3").label == "P0C3"

    def test_unknown_label_rejected(self, testbed):
        with pytest.raises(ConfigurationError):
            testbed.chips[0].core("P0C9")

    def test_slack_is_threshold_times_step(self, testbed):
        chip = testbed.chips[0]
        assert chip.slack_ps == pytest.approx(
            chip.threshold_units * chip.inverter_step_ps
        )


class TestCoreLabel:
    def test_format(self):
        assert core_label(0, 3) == "P0C3"
        assert core_label(1, 7) == "P1C7"

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            core_label(-1, 0)


class TestTestbed:
    def test_dimensions(self, testbed):
        assert len(testbed.chips) == 2
        assert all(chip.n_cores == CORES_PER_CHIP for chip in testbed.chips)

    def test_preset_codes_match_published(self, testbed):
        presets = [core.preset_code for core in testbed.all_cores]
        assert tuple(presets) == TESTBED_PRESET_CODES

    def test_preset_spread_is_wide(self, testbed):
        presets = [core.preset_code for core in testbed.all_cores]
        assert max(presets) / min(presets) >= 2.5  # the ~3x of Fig. 4b

    @pytest.mark.parametrize(
        "stress, expected_row",
        [
            (0.0, TESTBED_IDLE_LIMITS),
            (STRESS_UBENCH, TESTBED_UBENCH_LIMITS),
            (STRESS_THREAD_NORMAL, TESTBED_THREAD_NORMAL_LIMITS),
            (STRESS_THREAD_WORST, TESTBED_THREAD_WORST_LIMITS),
        ],
    )
    def test_noise_free_limits_reproduce_table1(self, testbed, stress, expected_row):
        for index, core in enumerate(testbed.all_cores):
            assert core.max_safe_reduction(stress) == expected_row[index], core.label

    def test_deterministic_for_same_seed(self):
        a = power7plus_testbed(2019)
        b = power7plus_testbed(2019)
        for core_a, core_b in zip(a.all_cores, b.all_cores):
            assert core_a.step_widths_ps == core_b.step_widths_ps

    def test_seed_changes_unconstrained_details_only(self):
        a = power7plus_testbed(1)
        b = power7plus_testbed(2)
        # Published anchors identical...
        assert [c.preset_code for c in a.all_cores] == [
            c.preset_code for c in b.all_cores
        ]
        for core_a, core_b in zip(a.all_cores, b.all_cores):
            assert core_a.max_safe_reduction(0.0) == core_b.max_safe_reduction(0.0)
        # ...while step shapes differ.
        assert any(
            core_a.step_widths_ps != core_b.step_widths_ps
            for core_a, core_b in zip(a.all_cores, b.all_cores)
        )

    def test_chip_of_lookup(self, testbed):
        assert testbed.chip_of("P1C4").chip_id == "P1"
        with pytest.raises(ConfigurationError):
            testbed.chip_of("P7C0")


class TestSampledChips:
    def test_core_count(self, random_chip):
        assert random_chip.n_cores == CORES_PER_CHIP

    def test_presets_within_code_range(self, random_chip):
        for core in random_chip.cores:
            assert 2 <= core.preset_code <= len(core.step_widths_ps)

    def test_limits_ordering_invariant(self, random_chip):
        """idle >= ubench >= normal >= worst on every sampled core."""
        for core in random_chip.cores:
            limits = [
                core.max_safe_reduction(s)
                for s in (0.0, STRESS_UBENCH, STRESS_THREAD_NORMAL, STRESS_THREAD_WORST)
            ]
            assert limits == sorted(limits, reverse=True), core.label

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_any_seed_builds_valid_chip(self, seed):
        chip = sample_chip(seed)
        assert chip.n_cores == CORES_PER_CHIP
        for core in chip.cores:
            assert core.protection_headroom_ps > 0.0
            assert core.synth_path.base_delay_ps > 0.0

    def test_nonphysical_draw_names_the_fleet_chip(self):
        # Fleet chip F10322 is the first non-physical draw at seed 2019.
        # The error names it and the core, not the P-style label that
        # seeds its RNG streams.
        with pytest.raises(
            ConfigurationError,
            match=r"^F10322 core 4: sampled chip is non-physical$",
        ):
            draw_chip(2019 + 10322, chip_id="F10322")

    def test_sample_server_shape(self):
        server = sample_server(5, n_chips=3, n_cores=4)
        assert len(server.chips) == 3
        assert all(chip.n_cores == 4 for chip in server.chips)

    def test_sample_server_rejects_zero_chips(self):
        with pytest.raises(ConfigurationError):
            sample_server(5, n_chips=0)
