"""Tests for unit conversions and platform constants."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.units import (
    CORES_PER_CHIP,
    CHIPS_PER_SERVER,
    DEFAULT_ATM_IDLE_MHZ,
    STATIC_MARGIN_MHZ,
    mhz_to_cycle_ps,
    require_positive,
)


class TestConversions:
    def test_static_margin_cycle_time(self):
        assert mhz_to_cycle_ps(4200.0) == pytest.approx(238.095, abs=0.001)

    def test_default_atm_cycle_time(self):
        assert mhz_to_cycle_ps(DEFAULT_ATM_IDLE_MHZ) == pytest.approx(217.391, abs=0.001)

    @given(st.floats(min_value=100.0, max_value=10000.0))
    def test_cycle_time_is_reciprocal_of_frequency(self, freq):
        assert mhz_to_cycle_ps(freq) * freq == pytest.approx(1e6, rel=1e-12)

    @given(st.floats(min_value=100.0, max_value=10000.0))
    def test_cycle_time_monotone_decreasing(self, freq):
        assert mhz_to_cycle_ps(freq + 1.0) < mhz_to_cycle_ps(freq)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            mhz_to_cycle_ps(0.0)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            mhz_to_cycle_ps(-4200.0)


class TestValidators:
    def test_require_positive_accepts(self):
        assert require_positive(1.5, "x") == 1.5

    def test_require_positive_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="x"):
            require_positive(0.0, "x")


class TestPlatformConstants:
    def test_server_size(self):
        assert CORES_PER_CHIP == 8
        assert CHIPS_PER_SERVER == 2

    def test_atm_gain_over_static(self):
        gain = DEFAULT_ATM_IDLE_MHZ / STATIC_MARGIN_MHZ
        assert math.isclose(gain, 4600 / 4200)
