"""Tests for the power-delivery network (IR drop, droop response)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.power.pdn import DroopResponse, PowerDeliveryNetwork


class TestIrDrop:
    def test_no_load_no_drop(self):
        pdn = PowerDeliveryNetwork(resistance_ohm=7.0e-4)
        assert pdn.ir_drop_v(0.0) == 0.0
        assert pdn.chip_voltage_v(0.0) == pytest.approx(1.25)

    def test_drop_proportional_to_power(self):
        pdn = PowerDeliveryNetwork(resistance_ohm=7.0e-4)
        assert pdn.ir_drop_v(100.0) == pytest.approx(2.0 * pdn.ir_drop_v(50.0))

    def test_stressmark_drop_magnitude(self):
        # 160 W at 1.25 V through 0.7 mOhm: ~90 mV, in the several-percent
        # range the paper's voltage-variation discussion spans.
        pdn = PowerDeliveryNetwork(resistance_ohm=7.0e-4)
        drop = pdn.ir_drop_v(160.0)
        assert 0.05 < drop < 0.12

    def test_current(self):
        pdn = PowerDeliveryNetwork(resistance_ohm=7.0e-4, vrm_voltage=1.25)
        assert pdn.current_a(125.0) == pytest.approx(100.0)

    def test_explicit_vrm_voltage(self):
        pdn = PowerDeliveryNetwork(resistance_ohm=7.0e-4)
        undervolted = pdn.chip_voltage_v(50.0, vrm_voltage_v=1.10)
        assert undervolted < 1.10

    def test_sensitivity_negative(self):
        pdn = PowerDeliveryNetwork(resistance_ohm=7.0e-4)
        assert pdn.voltage_sensitivity_v_per_w() < 0.0

    def test_negative_power_rejected(self):
        with pytest.raises(ConfigurationError):
            PowerDeliveryNetwork(resistance_ohm=7.0e-4).ir_drop_v(-1.0)

    def test_collapse_detected(self):
        pdn = PowerDeliveryNetwork(resistance_ohm=1.0)
        with pytest.raises(ConfigurationError):
            pdn.chip_voltage_v(10_000.0)

    @given(st.floats(min_value=0.0, max_value=300.0))
    def test_voltage_below_vrm_and_positive(self, power):
        pdn = PowerDeliveryNetwork(resistance_ohm=7.0e-4)
        voltage = pdn.chip_voltage_v(power)
        assert 0.0 < voltage <= 1.25


class TestDroopResponse:
    def test_waveform_zero_at_t0(self):
        droop = DroopResponse()
        assert droop.waveform_array_v(np.array([0.0]), 10.0)[0] == pytest.approx(0.0)

    def test_first_swing_is_negative(self):
        droop = DroopResponse()
        t_swing = droop.first_swing_time_ns()
        assert droop.waveform_array_v(np.array([t_swing]), 10.0)[0] < 0.0

    def test_first_swing_is_deepest(self):
        droop = DroopResponse()
        t_swing = droop.first_swing_time_ns()
        times = t_swing + np.array([0.0, 5.0, 10.0, 20.0, 40.0])
        depth, *later = droop.waveform_array_v(times, 10.0)
        assert all(value >= depth for value in later)

    def test_amplitude_scales_with_step(self):
        droop = DroopResponse()
        assert droop.amplitude_v(20.0) == pytest.approx(2.0 * droop.amplitude_v(10.0))

    def test_decays_out(self):
        droop = DroopResponse(damping_tau_ns=10.0)
        assert abs(droop.waveform_array_v(np.array([200.0]), 10.0)[0]) < 1e-6

    def test_first_swing_faster_than_slow_loops(self):
        # The first swing must land in single-digit nanoseconds — the
        # regime where only a nanosecond-class loop can respond.
        droop = DroopResponse()
        assert droop.first_swing_time_ns() < 10.0

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            DroopResponse().waveform_array_v(np.array([0.0, -1.0]), 10.0)

    def test_negative_step_rejected(self):
        with pytest.raises(ConfigurationError):
            DroopResponse().amplitude_v(-1.0)
