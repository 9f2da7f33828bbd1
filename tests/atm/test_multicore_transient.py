"""Tests for the shared-supply multi-core transient simulator."""

import numpy as np
import pytest

from repro.atm.multicore_transient import MulticoreTransientSimulator
from repro.dpll.control_loop import LoopConfig
from repro.errors import ConfigurationError
from repro.power.didt import DidtEventGenerator
from repro.silicon.chipspec import (
    TESTBED_THREAD_WORST_LIMITS,
    TESTBED_UBENCH_LIMITS,
)
from repro.workloads.base import IDLE
from repro.workloads.stressmark import VOLTAGE_VIRUS


@pytest.fixture(scope="module")
def simulator(chip0):
    return MulticoreTransientSimulator(chip0)


@pytest.fixture(scope="module")
def generator():
    return DidtEventGenerator(base_rate_per_us=0.4, mean_step_a=4.0)


class TestSharedSupply:
    def test_idle_chip_is_quiet(self, simulator):
        result = simulator.run(
            IDLE,
            [0] * 8,
            np.random.default_rng(0),
            duration_ns=500.0,
        )
        assert result.total_violations == 0
        assert result.worst_droop_v < 0.01

    def test_synchronization_deepens_droop(self, simulator, generator):
        kwargs = dict(duration_ns=2000.0, didt_generator=generator)
        independent = simulator.run(
            VOLTAGE_VIRUS,
            list(TESTBED_THREAD_WORST_LIMITS[:8]),
            np.random.default_rng(1),
            synchronized=False,
            **kwargs,
        )
        synchronized = simulator.run(
            VOLTAGE_VIRUS,
            list(TESTBED_THREAD_WORST_LIMITS[:8]),
            np.random.default_rng(1),
            synchronized=True,
            **kwargs,
        )
        assert synchronized.worst_droop_v > 2.0 * independent.worst_droop_v

    def test_synchronized_events_share_timestamps(self, simulator, generator):
        """In synchronized mode every core steps at the same instants."""
        result = simulator.run(
            VOLTAGE_VIRUS,
            list(TESTBED_THREAD_WORST_LIMITS[:8]),
            np.random.default_rng(2),
            duration_ns=2000.0,
            synchronized=True,
            didt_generator=generator,
        )
        # 8 cores sharing one master train: total events divisible by 8.
        assert result.total_events % 8 == 0

    def test_aggressive_config_violates_under_sync(self, simulator, generator):
        result = simulator.run(
            VOLTAGE_VIRUS,
            list(TESTBED_UBENCH_LIMITS[:8]),
            np.random.default_rng(3),
            duration_ns=3000.0,
            synchronized=True,
            didt_generator=generator,
        )
        assert result.total_violations > 0

    def test_gating_happens_during_droops(self, simulator, generator):
        result = simulator.run(
            VOLTAGE_VIRUS,
            list(TESTBED_THREAD_WORST_LIMITS[:8]),
            np.random.default_rng(4),
            duration_ns=2000.0,
            synchronized=True,
            didt_generator=generator,
        )
        assert sum(result.per_core_gated.values()) > 0

    def test_per_core_maps_cover_chip(self, simulator, chip0):
        result = simulator.run(
            IDLE, [0] * 8, np.random.default_rng(5), duration_ns=200.0
        )
        labels = {c.label for c in chip0.cores}
        assert set(result.per_core_violations) == labels
        assert set(result.per_core_gated) == labels


class TestValidation:
    def test_reduction_length_checked(self, simulator):
        with pytest.raises(ConfigurationError):
            simulator.run(IDLE, [0] * 7, np.random.default_rng(0))

    def test_duration_checked(self, simulator):
        with pytest.raises(ConfigurationError):
            simulator.run(IDLE, [0] * 8, np.random.default_rng(0), duration_ns=0.0)

    def test_dt_must_not_exceed_interval(self, chip0):
        """Rejected when the simulator is built, as for one core."""
        with pytest.raises(ConfigurationError, match="dt_ns must not exceed"):
            MulticoreTransientSimulator(
                chip0, LoopConfig(evaluation_interval_ns=1.0), dt_ns=2.0
            )

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_reduction_range_checked_before_drawing(self, simulator, chip0, side):
        """A reduction outside [0, preset] is named as the caller passed
        it, before any event is drawn."""
        core = chip0.cores[3]
        reductions = [0] * 8
        reductions[3] = -1 if side == "below" else core.preset_code + 1
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        message = rf"{core.label}: reduction must be in \[0, {core.preset_code}\]"
        with pytest.raises(ConfigurationError, match=message):
            simulator.run(VOLTAGE_VIRUS, reductions, rng)
        assert rng.bit_generator.state == state
