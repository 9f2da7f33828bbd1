"""Shared power-delivery network: DC IR drop and droop dynamics.

Two effects matter to ATM and are modeled separately because they live on
different timescales:

**DC IR drop** — steady current through the delivery path's effective
resistance lowers the voltage every core sees:
``V_chip = V_vrm − R · P / V_vrm``.  It tracks total chip power over
milliseconds, erodes timing margin under heavy co-runners, and is the
physical content of the paper's Eq. 1.  Because V_dd is shared, *any*
core's power consumption slows *every* core — the coupling the management
layer exists to control.

**di/dt droop** — abrupt current steps excite the RLC resonance of the
package/board network, producing a fast (tens of ns) damped-sinusoid
undershoot.  The ATM loop can absorb the slower part; the first-swing
undershoot faster than the loop's response must be covered by CPM
protection.  :class:`DroopResponse` generates the waveform for the
transient simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..units import NOMINAL_VDD, require_positive


@dataclass(frozen=True)
class PowerDeliveryNetwork:
    """Static (DC) model of one chip's power-delivery path.

    Parameters
    ----------
    resistance_ohm:
        Effective series resistance from VRM to the transistors.
    vrm_voltage:
        Regulator output voltage (the paper pins this at 1.25 V).
    """

    resistance_ohm: float
    vrm_voltage: float = NOMINAL_VDD

    def __post_init__(self) -> None:
        require_positive(self.resistance_ohm, "resistance_ohm")
        require_positive(self.vrm_voltage, "vrm_voltage")

    def current_a(self, chip_power_w: float) -> float:
        """Supply current drawn at ``chip_power_w`` total load."""
        if chip_power_w < 0.0:
            raise ConfigurationError(f"power must be >= 0, got {chip_power_w}")
        return chip_power_w / self.vrm_voltage

    def ir_drop_v(self, chip_power_w: float) -> float:
        """DC voltage lost across the delivery path at the given load."""
        return self.resistance_ohm * self.current_a(chip_power_w)

    def chip_voltage_v(
        self, chip_power_w: float, vrm_voltage_v: float | None = None
    ) -> float:
        """Voltage at the transistors for the given load.

        An explicit ``vrm_voltage_v`` supports the undervolting policy,
        where the off-chip controller moves the regulator set-point.
        """
        vrm = self.vrm_voltage if vrm_voltage_v is None else vrm_voltage_v
        if vrm <= 0.0:
            raise ConfigurationError(f"vrm voltage must be positive, got {vrm}")
        drop = self.resistance_ohm * chip_power_w / vrm
        voltage = vrm - drop
        if voltage <= 0.0:
            raise ConfigurationError(
                f"load {chip_power_w} W collapses the supply ({voltage:.3f} V)"
            )
        return voltage

    def voltage_sensitivity_v_per_w(self) -> float:
        """dV/dP of the DC model (negative; the slope behind Eq. 1)."""
        return -self.resistance_ohm / self.vrm_voltage


@dataclass(frozen=True)
class DroopResponse:
    """Second-order (RLC) voltage response to a current step.

    The classic first-droop waveform: an exponentially damped sinusoid

    ``v(t) = −A · exp(−t/τ) · sin(2π · f_res · t)``

    where amplitude ``A`` scales with the current step.  Typical server
    package resonances sit near 50–200 MHz with a first swing bottoming in
    a few nanoseconds — faster than a DPLL can fully answer.
    """

    resonance_mhz: float = 90.0
    damping_tau_ns: float = 18.0
    mv_per_amp_step: float = 3.0

    def __post_init__(self) -> None:
        require_positive(self.resonance_mhz, "resonance_mhz")
        require_positive(self.damping_tau_ns, "damping_tau_ns")
        require_positive(self.mv_per_amp_step, "mv_per_amp_step")

    def first_swing_time_ns(self) -> float:
        """Time of the first (deepest) undershoot after the step."""
        return 1000.0 / (4.0 * self.resonance_mhz)

    def amplitude_v(self, current_step_a: float) -> float:
        """Peak undershoot (volts) for a ``current_step_a`` load step."""
        if current_step_a < 0.0:
            raise ConfigurationError(
                f"current step must be >= 0, got {current_step_a}"
            )
        return self.mv_per_amp_step * current_step_a / 1000.0

    def waveform_array_v(
        self, times_ns: np.ndarray, current_step_a: float
    ) -> np.ndarray:
        """Voltage deviation (<= 0) at each of ``times_ns`` after a current step.

        The transient kernel builds a whole supply waveform from it, one
        array per event, instead of re-summing active droops at every step.
        """
        if times_ns.size and float(times_ns.min()) < 0.0:
            raise ConfigurationError(
                f"times must be >= 0, got {float(times_ns.min())}"
            )
        amplitude = self.amplitude_v(current_step_a)
        phase = 2.0 * math.pi * self.resonance_mhz * times_ns / 1000.0
        envelope = np.exp(-times_ns / self.damping_tau_ns)
        return -amplitude * envelope * np.sin(phase)
