"""Tests for chip-level power aggregation."""

import pytest

from repro.errors import ConfigurationError
from repro.power.core_power import chip_power_w, core_power_w
from repro.workloads.base import IDLE
from repro.workloads.ubench import DAXPY_SMT4


class TestCorePower:
    def test_gated_core_draws_nothing(self, chip0):
        assert core_power_w(chip0, 0, 4600.0, 1.0, gated=True) == 0.0

    def test_active_core_draws_power(self, chip0):
        assert core_power_w(chip0, 0, 4600.0, 1.0) > 1.0

    def test_index_validated(self, chip0):
        with pytest.raises(ConfigurationError):
            core_power_w(chip0, 8, 4600.0, 1.0)


class TestChipPower:
    def test_idle_chip_power_plausible(self, chip0):
        freqs = [4600.0] * 8
        activities = [IDLE.activity] * 8
        power = chip_power_w(chip0, freqs, activities)
        assert 15.0 < power < 40.0

    def test_stressmark_power_near_160w(self, chip0):
        """The paper's 32-daxpy-thread stress raises chip power to ~160 W."""
        freqs = [4500.0] * 8
        activities = [DAXPY_SMT4.activity] * 8
        power = chip_power_w(chip0, freqs, activities, vdd=1.16, temperature_c=70.0)
        assert 130.0 < power < 180.0

    def test_includes_uncore(self, chip0):
        freqs = [4200.0] * 8
        activities = [0.0] * 8
        gated = [True] * 8
        power = chip_power_w(chip0, freqs, activities, gated=gated)
        assert power == pytest.approx(chip0.uncore_power_w)

    def test_wrong_length_rejected(self, chip0):
        with pytest.raises(ConfigurationError):
            chip_power_w(chip0, [4200.0] * 7, [1.0] * 8)

    def test_wrong_gate_length_rejected(self, chip0):
        with pytest.raises(ConfigurationError):
            chip_power_w(chip0, [4200.0] * 8, [1.0] * 8, gated=[False] * 7)
