"""Tests for the integrated ATM manager (Fig. 13/14 scenarios)."""

import pytest

from repro.core.governor import GovernorPolicy
from repro.core.manager import AtmManager
from repro.errors import ConfigurationError
from repro.units import STATIC_MARGIN_MHZ
from repro.workloads.dnn import SEQ2SEQ, SQUEEZENET
from repro.workloads.parsec import STREAMCLUSTER, SWAPTIONS
from repro.workloads.spec import X264


@pytest.fixture(scope="module")
def manager(chip0_sim, p0_limits):
    return AtmManager(chip0_sim, p0_limits)


@pytest.fixture(scope="module")
def jobs():
    return [SQUEEZENET], [X264] * 7


class TestScenarioOrdering:
    """The Fig. 14 ordering must hold for every pair we evaluate."""

    @pytest.fixture(scope="class")
    def results(self, manager, jobs):
        criticals, backgrounds = jobs
        return {
            "static": manager.run_static_margin(criticals, backgrounds),
            "default": manager.run_default_atm(criticals, backgrounds),
            "unmanaged": manager.run_unmanaged_finetuned(criticals, backgrounds),
            "managed": manager.run_managed_max(criticals, backgrounds),
        }

    def test_static_is_unity(self, results):
        assert results["static"].critical_speedups["squeezenet"] == pytest.approx(1.0)

    def test_every_atm_mode_beats_static(self, results):
        for key in ("default", "unmanaged", "managed"):
            assert results[key].critical_speedups["squeezenet"] > 1.0

    def test_finetuned_beats_default(self, results):
        assert (
            results["unmanaged"].critical_speedups["squeezenet"]
            > results["default"].critical_speedups["squeezenet"]
        )

    def test_managed_beats_unmanaged(self, results):
        assert (
            results["managed"].critical_speedups["squeezenet"]
            > results["unmanaged"].critical_speedups["squeezenet"]
        )

    def test_managed_throttles_background(self, results):
        assert "2100" in results["managed"].background_setting

    def test_managed_power_below_unmanaged(self, results):
        assert (
            results["managed"].state.chip_power_w
            < results["unmanaged"].state.chip_power_w
        )

    def test_static_runs_fixed_frequency(self, results):
        assert all(
            f == STATIC_MARGIN_MHZ for f in results["static"].state.freqs_mhz
        )


class TestQosScenario:
    def test_target_met(self, manager, jobs):
        criticals, backgrounds = jobs
        result = manager.run_managed_qos(criticals, backgrounds, target_speedup=1.10)
        assert result.critical_speedups["squeezenet"] >= 1.095

    def test_background_maximized_under_promise(self, manager, jobs):
        """Balance policy: no more throttling than the budget demands."""
        criticals, backgrounds = jobs
        qos = manager.run_managed_qos(criticals, backgrounds, target_speedup=1.10)
        maxed = manager.run_managed_max(criticals, backgrounds)
        # QoS mode leaves the background faster (or equal), never slower.
        assert qos.state.chip_power_w >= maxed.state.chip_power_w

    def test_streamcluster_pairing_exceeds_target_unthrottled(self, manager):
        """Sec. VII-D: streamcluster's low power leaves headroom."""
        result = manager.run_managed_qos(
            [SEQ2SEQ], [STREAMCLUSTER] * 7, target_speedup=1.10
        )
        assert result.critical_speedups["seq2seq"] > 1.10
        assert "uncapped" in result.background_setting

    def test_bad_target_rejected(self, manager, jobs):
        criticals, backgrounds = jobs
        with pytest.raises(ConfigurationError):
            manager.run_managed_qos(criticals, backgrounds, target_speedup=0.0)


class TestManagerMachinery:
    def test_reductions_follow_policy(self, manager, p0_limits):
        assert manager.reductions == p0_limits.row("thread worst")

    def test_predictors_cached(self, manager):
        assert manager.frequency_predictors() is manager.frequency_predictors()
        first = manager.performance_predictor(SQUEEZENET)
        assert manager.performance_predictor(SQUEEZENET) is first

    def test_mean_speedup_requires_criticals(self, manager, jobs):
        criticals, backgrounds = jobs
        result = manager.run_static_margin(criticals, backgrounds)
        assert result.mean_critical_speedup == pytest.approx(1.0)

    def test_conservative_policy_restricts_placement(self, chip0_sim, p0_limits):
        manager = AtmManager(
            chip0_sim, p0_limits, policy=GovernorPolicy.CONSERVATIVE
        )
        result = manager.run_managed_max([SQUEEZENET], [SWAPTIONS] * 7)
        robust = p0_limits.most_robust_cores(4)
        critical_core = next(iter(result.placement.critical))
        assert critical_core in robust
