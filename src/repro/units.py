"""Physical units, conversions, and platform-wide constants.

The library standardizes on the following internal units:

===========  ==============  =========================================
Quantity     Internal unit   Notes
===========  ==============  =========================================
frequency    MHz             matches the paper's figures (4200..5200)
time         picoseconds     pipeline path delays and cycle times
voltage      volts           V_dd around 1.25 V
power        watts           per-core and chip totals
temperature  degrees C       die temperature
===========  ==============  =========================================

Helper functions convert frequency to cycle time and validate that values
are positive.  Constants describing the POWER7+ platform as reported by the
paper live here so every module quotes a single source of truth.
"""

from __future__ import annotations

from .errors import ConfigurationError

# --------------------------------------------------------------------------
# POWER7+ platform constants (Sec. II of the paper)
# --------------------------------------------------------------------------

#: Static-timing-margin P-state frequency: the fixed clock used when ATM is
#: disabled (the paper's primary baseline).
STATIC_MARGIN_MHZ = 4200.0

#: Frequency the *default* (factory preset) ATM configuration reaches with
#: the system idle: every core lands near this point because the preset
#: inserted delays smooth out inter-core speed variation.
DEFAULT_ATM_IDLE_MHZ = 4600.0

#: Supply voltage of the 4.2 GHz P-state; the paper pins V_dd here and
#: converts all reclaimed margin into frequency.
NOMINAL_VDD = 1.25

#: DVFS range of the POWER7+ p-states (coarse-grained mechanism that ATM
#: fine-tunes around).
DVFS_MIN_MHZ = 2100.0
DVFS_MAX_MHZ = 4200.0

#: Cores per POWER7+ processor and processors in the studied server.
CORES_PER_CHIP = 8
CHIPS_PER_SERVER = 2

#: SMT ways per core (context only; the characterization is per physical
#: core).
SMT_WAYS = 4

#: Die temperature ceiling the paper maintains during evaluation.
MAX_DIE_TEMPERATURE_C = 70.0

#: Ambient / idle die temperature used as the thermal model's baseline.
AMBIENT_TEMPERATURE_C = 40.0

#: Chip power reached by the paper's stress-test (32 daxpy threads + issue
#: throttling virus).
STRESSMARK_CHIP_POWER_W = 160.0

#: Sliding-window length of the off-chip voltage controller.
VOLTAGE_CONTROLLER_WINDOW_MS = 32.0

#: Number of CPMs per core participating in ATM (the LLC CPM sits in a
#: different clock domain and is excluded, as in the paper).
CPMS_PER_CORE = 4

#: Units of the CPM inserted-delay configuration observed on the testbed
#: chips (Fig. 4b shows presets from 7 to 20).
CPM_DELAY_CODE_MIN = 0
CPM_DELAY_CODE_MAX = 31

# --------------------------------------------------------------------------
# Conversions
# --------------------------------------------------------------------------

_PS_PER_SECOND = 1e12
_MHZ_PER_HZ = 1e-6


def mhz_to_cycle_ps(freq_mhz: float) -> float:
    """Return the clock cycle time in picoseconds for ``freq_mhz``.

    >>> round(mhz_to_cycle_ps(4200.0), 3)
    238.095
    """
    if freq_mhz <= 0.0:
        raise ConfigurationError(f"frequency must be positive, got {freq_mhz} MHz")
    return _PS_PER_SECOND / (freq_mhz / _MHZ_PER_HZ)


def require_positive(value: float, name: str) -> float:
    """Validate that ``value`` is strictly positive and return it."""
    if not value > 0.0:
        raise ConfigurationError(f"{name} must be positive, got {value!r}")
    return value
