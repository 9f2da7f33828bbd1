"""Vectorized and batched fixed-point solves over a :class:`CompiledChip`.

:func:`solve_many_compiled` reproduces
:meth:`repro.atm.chip_sim.ChipSim.solve_steady_state` with every per-core
quantity evaluated as array math, stacking K candidate assignment vectors
into (K, n_cores) matrices and converging them simultaneously.  Rows are
independent (no cross-row coupling in the physics), so masked per-row
convergence freezes each row at exactly the state its solo solve would
have reached; the batch exists purely to amortize Python and numpy
dispatch overhead across candidates.

It accepts a ``warm_start`` state: monotone sweeps (e.g. the Eq. 1
frequency/power training sweep, or Fig. 5's reduction staircase) seed the
iteration from the previous converged point instead of the nominal
operating point, which typically saves half the iterations.  The fixed
point is a strong contraction, so warm and cold starts agree within the
solver tolerance.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..units import AMBIENT_TEMPERATURE_C, NOMINAL_VDD, STATIC_MARGIN_MHZ
from .compiled import CompiledChip

# Mirrors of the scalar solver's constants (single source of truth is
# ChipSim; its __init_subclass__-free class attributes are imported lazily
# to avoid a circular import, and consistency is asserted in the tests).
TOLERANCE_MHZ = 1.0e-3
MAX_ITERATIONS = 200


def _compile_rows(compiled: CompiledChip, rows: Sequence[tuple]) -> dict:
    """Flatten K assignment tuples into (K, n) arrays.

    Assignment validation (length, reduction vs preset) happens upstream in
    :class:`~repro.atm.chip_sim.ChipSim`; this helper only reshapes.
    """
    # Local import: chip_sim imports this package.
    from ..atm.chip_sim import MarginMode

    n = compiled.n_cores
    k = len(rows)
    atm = np.zeros((k, n), dtype=bool)
    gated = np.zeros((k, n), dtype=bool)
    code = np.zeros((k, n), dtype=np.int64)
    cap = np.full((k, n), np.inf)
    fixed_freq = np.zeros((k, n))
    activity = np.zeros((k, n))
    for row, assignments in enumerate(rows):
        for col, assignment in enumerate(assignments):
            activity[row, col] = assignment.workload.activity
            if assignment.mode is MarginMode.ATM:
                atm[row, col] = True
                code[row, col] = (
                    compiled.preset_code[col] - assignment.reduction_steps
                )
                if assignment.freq_cap_mhz is not None:
                    cap[row, col] = assignment.freq_cap_mhz
            elif assignment.mode is MarginMode.GATED:
                gated[row, col] = True
            else:
                fixed_freq[row, col] = (
                    assignment.freq_cap_mhz
                    if assignment.freq_cap_mhz is not None
                    else STATIC_MARGIN_MHZ
                )
    nominal_total = (
        compiled.base_delay_ps
        + compiled.insert_table_ps[np.arange(n), code]
        + compiled.slack_ps
    )
    return {
        "atm": atm,
        "gated": gated,
        "cap": cap,
        "fixed_freq": fixed_freq,
        "activity": activity,
        "nominal_total": nominal_total,
    }


def _frequencies(compiled: CompiledChip, tables: dict, vdd, temperature):
    """Per-core frequencies (K, n) at the given per-row operating points."""
    v = vdd[:, None]
    if np.any(v <= compiled.v_threshold):
        raise ConfigurationError(
            "vdd fell below a core's threshold voltage during the solve"
        )
    actual = v / ((v - compiled.v_threshold) ** compiled.alpha)
    scale = (actual / compiled.nominal_alpha_factor) * (
        1.0 + compiled.temp_coeff * (temperature[:, None] - AMBIENT_TEMPERATURE_C)
    )
    freqs = 1.0e6 / (tables["nominal_total"] * scale)
    freqs = np.minimum(freqs, tables["cap"])
    return np.where(tables["atm"], freqs, tables["fixed_freq"])


def _chip_power(compiled: CompiledChip, tables: dict, freqs, vdd, temperature):
    """Total chip power (K,) at the given frequencies and operating points.

    Matches the scalar path: gated cores contribute nothing, but the
    frequency placeholder for them never reaches the dynamic term because
    the gate mask zeroes the whole per-core sum.
    """
    v_ratio_sq = (vdd / NOMINAL_VDD) ** 2
    power_freqs = np.where(freqs > 0.0, freqs, STATIC_MARGIN_MHZ)
    dynamic = (
        compiled.ceff_w_per_ghz
        * tables["activity"]
        * v_ratio_sq[:, None]
        * (power_freqs / 1000.0)
    )
    leakage = (
        compiled.leakage_w
        * v_ratio_sq[:, None]
        * (
            1.0
            + compiled.leakage_temp_coeff
            * (temperature[:, None] - AMBIENT_TEMPERATURE_C)
        )
    )
    per_core = np.where(tables["gated"], 0.0, dynamic + leakage)
    return compiled.uncore_power_w + per_core.sum(axis=1)


def solve_many_compiled(
    compiled: CompiledChip,
    rows: Sequence[tuple],
    *,
    warm_start=None,
    tolerance_mhz: float = TOLERANCE_MHZ,
    max_iterations: int = MAX_ITERATIONS,
) -> list:
    """Converge K assignment vectors simultaneously.

    Returns one :class:`~repro.atm.chip_sim.ChipSteadyState` per row, in
    input order.  Raises :class:`SimulationError` if any row fails to
    converge within the iteration budget.
    """
    from ..atm.chip_sim import ChipSteadyState

    if not rows:
        return []
    tables = _compile_rows(compiled, rows)
    k = len(rows)

    vdd = np.full(k, compiled.vrm_voltage)
    temperature = np.full(k, compiled.ambient_c)
    freqs = _frequencies(compiled, tables, vdd, temperature)
    if warm_start is not None:
        warm = np.asarray(warm_start.freqs_mhz, dtype=np.float64)
        if warm.shape != (compiled.n_cores,):
            raise ConfigurationError(
                f"warm start must carry {compiled.n_cores} core frequencies"
            )
        # Seed only the ATM entries; fixed/gated entries already hold their
        # mode-determined values and a stale warm frequency would be wrong.
        warm_rows = np.minimum(
            np.broadcast_to(warm, freqs.shape), tables["cap"]
        )
        freqs = np.where(tables["atm"] & (warm_rows > 0.0), warm_rows, freqs)

    power = np.zeros(k)
    iterations = np.zeros(k, dtype=np.int64)
    active = np.ones(k, dtype=bool)

    for iteration in range(1, max_iterations + 1):
        idx = np.nonzero(active)[0]
        sub = {
            key: value[idx] if isinstance(value, np.ndarray) else value
            for key, value in tables.items()
        }
        sub_power = _chip_power(
            compiled, sub, freqs[idx], vdd[idx], temperature[idx]
        )
        sub_vdd = compiled.vrm_voltage - (
            compiled.pdn_resistance_ohm * sub_power / compiled.vrm_voltage
        )
        if np.any(sub_vdd <= 0.0):
            raise ConfigurationError(
                "chip load collapses the supply during the solve"
            )
        sub_temp = compiled.ambient_c + compiled.thermal_resistance * sub_power
        new_freqs = _frequencies(compiled, sub, sub_vdd, sub_temp)
        delta = np.max(np.abs(new_freqs - freqs[idx]), axis=1)

        freqs[idx] = new_freqs
        power[idx] = sub_power
        vdd[idx] = sub_vdd
        temperature[idx] = sub_temp
        converged = delta < tolerance_mhz
        iterations[idx[converged]] = iteration
        active[idx[converged]] = False
        if not active.any():
            break
    else:
        raise SimulationError(
            f"{compiled.chip.chip_id}: steady-state solve did not converge in "
            f"{max_iterations} iterations"
        )

    return [
        ChipSteadyState(
            freqs_mhz=tuple(float(f) for f in freqs[row]),
            chip_power_w=float(power[row]),
            vdd=float(vdd[row]),
            temperature_c=float(temperature[row]),
            iterations=int(iterations[row]),
            assignments=tuple(rows[row]),
        )
        for row in range(k)
    ]
