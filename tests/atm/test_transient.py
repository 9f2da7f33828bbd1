"""Tests for the transient di/dt simulator."""

import numpy as np
import pytest

from repro.atm.transient import TransientSimulator
from repro.dpll.control_loop import LoopConfig
from repro.errors import ConfigurationError
from repro.power.didt import DidtEventGenerator
from repro.silicon.chipspec import TESTBED_UBENCH_LIMITS
from repro.workloads.base import IDLE
from repro.workloads.spec import X264


@pytest.fixture(scope="module")
def simulator(testbed):
    chip = testbed.chips[0]
    return TransientSimulator(chip, chip.cores[0], dt_ns=0.25)


class TestQuietRuns:
    def test_idle_run_survives(self, simulator):
        result = simulator.run(
            IDLE, 0, np.random.default_rng(0), duration_ns=500.0
        )
        assert result.survived
        assert result.gated_intervals == 0

    def test_no_events_stable_voltage(self, simulator):
        result = simulator.run(
            IDLE, 0, np.random.default_rng(1), duration_ns=500.0,
            didt_generator=DidtEventGenerator(base_rate_per_us=1e-9),
        )
        assert result.min_voltage_v == pytest.approx(
            result.min_voltage_v, abs=1e-9
        )
        assert result.events == ()

    def test_trace_recorded_on_request(self, simulator):
        """Every run returns its trajectory: the supply at each step, and
        the loop's frequency, reading and gate at each 1 ns interval."""
        result = simulator.run(IDLE, 0, np.random.default_rng(2), duration_ns=100.0)
        assert result.voltage_v.shape == (400,)  # 100 ns / 0.25 ns
        assert result.voltage_v.min() > 1.0
        for per_interval in (result.frequency_mhz, result.margin_units, result.gated):
            assert per_interval.shape == (100,)
        assert result.final_frequency_mhz == result.frequency_mhz[-1]
        assert not result.gated.any()


class TestDroopResponse:
    def test_droops_depress_voltage(self, simulator):
        noisy = simulator.run(
            X264,
            0,
            np.random.default_rng(4),
            duration_ns=3000.0,
            didt_generator=DidtEventGenerator(base_rate_per_us=3.0, mean_step_a=10.0),
        )
        quiet = simulator.run(IDLE, 0, np.random.default_rng(4), duration_ns=3000.0)
        assert noisy.min_voltage_v < quiet.min_voltage_v

    def test_fast_loop_gates_through_droops(self, testbed):
        """At an aggressive config, the ns-class loop survives x264 noise."""
        chip = testbed.chips[0]
        simulator = TransientSimulator(
            chip, chip.cores[0], LoopConfig(evaluation_interval_ns=1.0), dt_ns=0.25
        )
        result = simulator.run(
            X264,
            TESTBED_UBENCH_LIMITS[0],
            np.random.default_rng(5),
            duration_ns=6000.0,
            dc_chip_power_w=80.0,
            didt_generator=DidtEventGenerator(base_rate_per_us=2.0, mean_step_a=8.0),
        )
        assert result.violations == 0
        assert result.gated_intervals > 0

    def test_slow_loop_lets_droops_through(self, testbed):
        """Slowing the loop by >2 orders of magnitude exposes violations."""
        chip = testbed.chips[0]
        fast_sim = TransientSimulator(
            chip, chip.cores[0], LoopConfig(evaluation_interval_ns=1.0), dt_ns=0.25
        )
        slow_sim = TransientSimulator(
            chip, chip.cores[0], LoopConfig(evaluation_interval_ns=256.0), dt_ns=0.25
        )
        kwargs = dict(
            duration_ns=6000.0,
            dc_chip_power_w=80.0,
            didt_generator=DidtEventGenerator(base_rate_per_us=2.0, mean_step_a=8.0),
        )
        fast = fast_sim.run(
            X264, TESTBED_UBENCH_LIMITS[0], np.random.default_rng(6), **kwargs
        )
        slow = slow_sim.run(
            X264, TESTBED_UBENCH_LIMITS[0], np.random.default_rng(6), **kwargs
        )
        assert slow.violations > fast.violations

    def test_synchronized_stress_is_worse(self, simulator):
        solo = simulator.run(
            X264,
            TESTBED_UBENCH_LIMITS[0],
            np.random.default_rng(7),
            duration_ns=4000.0,
            synchronized_cores=1,
        )
        synced = simulator.run(
            X264,
            TESTBED_UBENCH_LIMITS[0],
            np.random.default_rng(7),
            duration_ns=4000.0,
            synchronized_cores=8,
        )
        assert synced.min_voltage_v <= solo.min_voltage_v


class TestValidation:
    def test_bad_reduction_rejected(self, simulator):
        with pytest.raises(ConfigurationError):
            simulator.run(IDLE, 99, np.random.default_rng(0))

    def test_bad_duration_rejected(self, simulator):
        with pytest.raises(ConfigurationError):
            simulator.run(IDLE, 0, np.random.default_rng(0), duration_ns=0.0)

    def test_dt_must_not_exceed_interval(self, testbed):
        chip = testbed.chips[0]
        with pytest.raises(ConfigurationError):
            TransientSimulator(
                chip, chip.cores[0], LoopConfig(evaluation_interval_ns=1.0), dt_ns=2.0
            )
