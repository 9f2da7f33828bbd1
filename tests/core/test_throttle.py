"""Tests for background-job throttling under a power budget."""

import pytest

from repro.core.freq_predictor import fit_core_frequency_models
from repro.core.scheduler import VariationAwareScheduler
from repro.core.throttle import (
    BackgroundThrottler,
    PSTATE_LADDER_MHZ,
    THROTTLE_LADDER,
    ThrottleSetting,
    build_assignments,
)
from repro.errors import ConfigurationError, SchedulingError
from repro.silicon.chipspec import TESTBED_THREAD_WORST_LIMITS
from repro.units import DVFS_MAX_MHZ, DVFS_MIN_MHZ
from repro.workloads.dnn import SQUEEZENET
from repro.workloads.spec import X264


@pytest.fixture(scope="module")
def placement(chip0, chip0_sim):
    predictors = fit_core_frequency_models(
        chip0_sim, tuple(TESTBED_THREAD_WORST_LIMITS[:8])
    )
    scheduler = VariationAwareScheduler(chip0, predictors)
    return scheduler.place([SQUEEZENET], [X264] * 7)


@pytest.fixture(scope="module")
def reductions():
    return tuple(TESTBED_THREAD_WORST_LIMITS[:8])


class TestSettings:
    def test_pstate_ladder_invariants(self):
        assert list(PSTATE_LADDER_MHZ) == sorted(set(PSTATE_LADDER_MHZ))
        assert PSTATE_LADDER_MHZ[0] == DVFS_MIN_MHZ
        assert PSTATE_LADDER_MHZ[-1] == DVFS_MAX_MHZ

    def test_ladder_order(self):
        # First entry unthrottled, last entry gated.
        assert THROTTLE_LADDER[0].cap_mhz is None and not THROTTLE_LADDER[0].gated
        assert THROTTLE_LADDER[-1].gated

    def test_ladder_contains_all_pstates(self):
        caps = {s.cap_mhz for s in THROTTLE_LADDER if s.cap_mhz is not None}
        assert caps == set(PSTATE_LADDER_MHZ)

    def test_invalid_cap_rejected(self):
        with pytest.raises(ConfigurationError):
            ThrottleSetting(cap_mhz=1000.0)

    def test_describe(self):
        assert "gated" in ThrottleSetting(cap_mhz=None, gated=True).describe()
        assert "2100" in ThrottleSetting(cap_mhz=2100.0).describe()


class TestBuildAssignments:
    def test_critical_never_capped(self, chip0_sim, placement, reductions):
        assignments = build_assignments(
            chip0_sim, placement, reductions, ThrottleSetting(cap_mhz=2100.0)
        )
        for core, assignment in zip(chip0_sim.chip.cores, assignments):
            if core.label in placement.critical:
                assert assignment.freq_cap_mhz is None
            elif core.label in placement.background:
                assert assignment.freq_cap_mhz == 2100.0

    def test_gated_setting_gates_background_only(
        self, chip0_sim, placement, reductions
    ):
        from repro.atm.chip_sim import MarginMode

        assignments = build_assignments(
            chip0_sim, placement, reductions, ThrottleSetting(cap_mhz=None, gated=True)
        )
        for core, assignment in zip(chip0_sim.chip.cores, assignments):
            if core.label in placement.background:
                assert assignment.mode is MarginMode.GATED
            else:
                assert assignment.mode is MarginMode.ATM

    def test_wrong_reduction_length_rejected(self, chip0_sim, placement):
        with pytest.raises(ConfigurationError):
            build_assignments(
                chip0_sim, placement, (0, 1), ThrottleSetting(cap_mhz=None)
            )


class TestThrottleSearch:
    def test_deeper_throttle_less_power(self, chip0_sim, placement, reductions):
        throttler = BackgroundThrottler(chip0_sim)
        unthrottled = throttler.evaluate(
            placement, reductions, ThrottleSetting(cap_mhz=None)
        )
        capped = throttler.evaluate(
            placement, reductions, ThrottleSetting(cap_mhz=2100.0)
        )
        gated = throttler.evaluate(
            placement, reductions, ThrottleSetting(cap_mhz=None, gated=True)
        )
        assert unthrottled.chip_power_w > capped.chip_power_w > gated.chip_power_w

    def test_throttling_background_speeds_critical(
        self, chip0_sim, placement, reductions
    ):
        """The whole point: shedding co-runner power raises critical MHz."""
        throttler = BackgroundThrottler(chip0_sim)
        critical_index = next(
            i
            for i, core in enumerate(chip0_sim.chip.cores)
            if core.label in placement.critical
        )
        fast = throttler.evaluate(
            placement, reductions, ThrottleSetting(cap_mhz=None)
        )
        slow = throttler.evaluate(
            placement, reductions, ThrottleSetting(cap_mhz=2100.0)
        )
        assert (
            slow.state.core_freq_mhz(critical_index)
            > fast.state.core_freq_mhz(critical_index)
        )

    def test_minimal_throttle_loose_budget(self, chip0_sim, placement, reductions):
        throttler = BackgroundThrottler(chip0_sim)
        decision = throttler.minimal_throttle(placement, reductions, 500.0)
        assert decision.setting.cap_mhz is None and not decision.setting.gated

    def test_minimal_throttle_tight_budget(self, chip0_sim, placement, reductions):
        throttler = BackgroundThrottler(chip0_sim)
        loose = throttler.evaluate(
            placement, reductions, ThrottleSetting(cap_mhz=None)
        )
        budget = loose.chip_power_w - 20.0
        decision = throttler.minimal_throttle(placement, reductions, budget)
        assert decision.chip_power_w <= budget
        assert decision.setting.cap_mhz is not None or decision.setting.gated

    def test_budget_met_with_least_throttle(self, chip0_sim, placement, reductions):
        """No less-throttled ladder entry could have met the budget."""
        throttler = BackgroundThrottler(chip0_sim)
        budget = 80.0
        decision = throttler.minimal_throttle(placement, reductions, budget)
        index = THROTTLE_LADDER.index(decision.setting)
        for earlier in THROTTLE_LADDER[:index]:
            state = throttler.evaluate(placement, reductions, earlier)
            assert state.chip_power_w > budget

    def test_infeasible_budget_raises(self, chip0_sim, placement, reductions):
        throttler = BackgroundThrottler(chip0_sim)
        with pytest.raises(SchedulingError):
            throttler.minimal_throttle(placement, reductions, 5.0)

    def test_nonpositive_budget_rejected(self, chip0_sim, placement, reductions):
        throttler = BackgroundThrottler(chip0_sim)
        with pytest.raises(ConfigurationError):
            throttler.minimal_throttle(placement, reductions, 0.0)
