"""Chip-level power aggregation.

Per-core electrical models live in
:class:`repro.silicon.chipspec.CorePowerSpec`; this module sums them with
the uncore contribution to produce the total chip power that drives the
IR-drop coupling.  Functions take parallel sequences (one entry per core)
so the steady-state solver can evaluate candidate operating points without
building intermediate objects.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..errors import ConfigurationError
from ..silicon.chipspec import ChipSpec
from ..units import AMBIENT_TEMPERATURE_C, NOMINAL_VDD


def core_power_w(
    chip: ChipSpec,
    core_index: int,
    freq_mhz: float,
    activity: float,
    vdd: float = NOMINAL_VDD,
    temperature_c: float = AMBIENT_TEMPERATURE_C,
    *,
    gated: bool = False,
) -> float:
    """Power of one core at the given operating point.

    A power-gated core draws nothing (POWER7+ can cut both switching and
    leakage by collapsing the core's power domain).
    """
    if not (0 <= core_index < chip.n_cores):
        raise ConfigurationError(
            f"core_index must be in [0, {chip.n_cores}), got {core_index}"
        )
    if gated:
        return 0.0
    return chip.cores[core_index].power.power_w(freq_mhz, activity, vdd, temperature_c)


def chip_power_w(
    chip: ChipSpec,
    freqs_mhz: Sequence[float],
    activities: Sequence[float],
    vdd: float = NOMINAL_VDD,
    temperature_c: float = AMBIENT_TEMPERATURE_C,
    gated: Sequence[bool] | None = None,
) -> float:
    """Total chip power: all cores plus uncore.

    ``freqs_mhz`` and ``activities`` must have one entry per core; ``gated``
    optionally marks power-gated cores.
    """
    if len(freqs_mhz) != chip.n_cores or len(activities) != chip.n_cores:
        raise ConfigurationError(
            f"need {chip.n_cores} per-core entries, got "
            f"{len(freqs_mhz)} freqs / {len(activities)} activities"
        )
    gate_flags = list(gated) if gated is not None else [False] * chip.n_cores
    if len(gate_flags) != chip.n_cores:
        raise ConfigurationError(f"gated must have {chip.n_cores} entries")
    total = chip.uncore_power_w
    for index in range(chip.n_cores):
        total += core_power_w(
            chip,
            index,
            freqs_mhz[index],
            activities[index],
            vdd,
            temperature_c,
            gated=gate_flags[index],
        )
    return total
