"""The one steady-state fixed-point kernel, and its one-chip entry.

Core frequencies set chip power, power sets the IR-dropped supply and the
die temperature, and those set the frequencies again.  This module holds
the only array implementation of that loop (the scalar
:meth:`repro.atm.chip_sim.ChipSim.solve_steady_state_reference` is its
test oracle): :func:`flatten_rows` turns B assignment rows into (B, width)
tables, :func:`_frequencies` and :func:`_power` evaluate the two halves
of an iteration, and :func:`converge` iterates all rows at once with
masked per-row convergence.  Rows never couple, so a converged row is
frozen at exactly the state its solo solve would have reached.

The kernel reads the :data:`CHIP_PARAMETERS` in one of two shapes.
:func:`solve_many_compiled` passes one :class:`CompiledChip`'s arrays as
they are, broadcast across the rows with no stacking and no gathers;
:func:`repro.fastpath.population.solve_population_compiled` gathers them
per row from a stacked population.  Every elementwise operation sees the
same operands either way, so an equal-core-count population solve is
bitwise the per-chip solve.

Warm starts seed the iteration from a previous converged point (monotone
sweeps such as Fig. 5's reduction staircase), which typically saves half
the iterations; the fixed point is a strong contraction, so warm and cold
starts agree within the solver tolerance.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..units import AMBIENT_TEMPERATURE_C, NOMINAL_VDD, STATIC_MARGIN_MHZ
from .compiled import CompiledChip

# Mirrors of the scalar solver's constants (single source of truth is
# ChipSim; its __init_subclass__-free class attributes are imported lazily
# to avoid a circular import, and consistency is asserted in the tests).
TOLERANCE_MHZ = 1.0e-3
MAX_ITERATIONS = 200

#: Chip parameters the kernel reads: seven per core, then five per chip.
#: :class:`CompiledChip` and :class:`CompiledPopulation` both carry them
#: under these names.
CHIP_PARAMETERS = (
    "v_threshold",
    "alpha",
    "nominal_alpha_factor",
    "temp_coeff",
    "leakage_w",
    "ceff_w_per_ghz",
    "leakage_temp_coeff",
    "vrm_voltage",
    "pdn_resistance_ohm",
    "uncore_power_w",
    "ambient_c",
    "thermal_resistance",
)


def flatten_rows(rows: Sequence[tuple], presets: Sequence, width: int) -> dict:
    """Flatten B assignment rows into (B, width) tables.

    ``presets[r]`` holds the preset codes of row ``r``'s chip; an ATM
    lane's inserted-delay ``code`` is its preset minus its reduction.
    Lanes past a row's own length are phantom cores, gated in every row.
    Assignment validation (length, reduction vs preset) happens upstream
    (:func:`repro.atm.chip_sim.check_assignment_rows`).
    """
    # Local import: chip_sim imports this package.
    from ..atm.chip_sim import MarginMode

    b = len(rows)
    atm = np.zeros((b, width), dtype=bool)
    gated = np.zeros((b, width), dtype=bool)
    code = np.zeros((b, width), dtype=np.int64)
    cap = np.full((b, width), np.inf)
    fixed_freq = np.zeros((b, width))
    activity = np.zeros((b, width))
    for row, (assignments, preset) in enumerate(zip(rows, presets)):
        gated[row, len(assignments):] = True
        for col, assignment in enumerate(assignments):
            activity[row, col] = assignment.workload.activity
            if assignment.mode is MarginMode.ATM:
                atm[row, col] = True
                code[row, col] = preset[col] - assignment.reduction_steps
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
    return {
        "atm": atm,
        "gated": gated,
        "cap": cap,
        "fixed_freq": fixed_freq,
        "activity": activity,
        "code": code,
    }


def _frequencies(t: dict, vdd, temperature):
    """Per-core frequencies (B, width) at the given per-row operating points."""
    v = vdd[:, None]
    if np.any(v <= t["v_threshold"]):
        raise ConfigurationError(
            "vdd fell below a core's threshold voltage during the solve"
        )
    actual = v / ((v - t["v_threshold"]) ** t["alpha"])
    scale = (actual / t["nominal_alpha_factor"]) * (
        1.0 + t["temp_coeff"] * (temperature[:, None] - AMBIENT_TEMPERATURE_C)
    )
    freqs = 1.0e6 / (t["nominal_total"] * scale)
    freqs = np.minimum(freqs, t["cap"])
    return np.where(t["atm"], freqs, t["fixed_freq"])


def _power(t: dict, freqs, vdd, temperature):
    """Total chip power (B,) at the given frequencies and operating points.

    Matches the scalar path: gated and phantom cores contribute nothing,
    and the frequency placeholder for them never reaches the dynamic term
    because the gate mask zeroes the whole per-core sum.
    """
    v_ratio_sq = (vdd / NOMINAL_VDD) ** 2
    power_freqs = np.where(freqs > 0.0, freqs, STATIC_MARGIN_MHZ)
    dynamic = (
        t["ceff_w_per_ghz"]
        * t["activity"]
        * v_ratio_sq[:, None]
        * (power_freqs / 1000.0)
    )
    leakage = (
        t["leakage_w"]
        * v_ratio_sq[:, None]
        * (
            1.0
            + t["leakage_temp_coeff"]
            * (temperature[:, None] - AMBIENT_TEMPERATURE_C)
        )
    )
    per_core = np.where(t["gated"], 0.0, dynamic + leakage)
    return t["uncore_power_w"] + per_core.sum(axis=1)


def converge(
    tables: dict,
    shared: dict,
    rows: Sequence[tuple],
    *,
    warm,
    chip_id_of: Callable[[int], str],
    tolerance_mhz: float,
    max_iterations: int,
) -> list:
    """Converge B flattened rows as one masked fixed point.

    ``tables`` holds every operand with a leading row axis: the
    :func:`flatten_rows` tables with ``code`` resolved to
    ``nominal_total`` (base + inserted + slack delay), plus any
    :data:`CHIP_PARAMETERS` gathered per row.  ``shared`` holds the
    parameters every row reads as they are.  Once a row has converged,
    each iteration slices only ``tables`` down to the rows still active.
    ``warm`` (or ``None``)
    broadcasts to (B, width) and seeds the ATM lanes it holds a positive
    frequency for.  ``chip_id_of(row)`` names the chip in the error for a
    row that does not converge.

    Returns one :class:`~repro.atm.chip_sim.ChipSteadyState` per row, in
    input order, with frequencies cut to the row's own length.
    """
    from ..atm.chip_sim import ChipSteadyState

    t = {**shared, **tables}
    b = len(rows)
    vdd = np.full(b, t["vrm_voltage"])
    temperature = np.full(b, t["ambient_c"])
    freqs = _frequencies(t, vdd, temperature)
    if warm is not None:
        # Seed only the ATM entries; fixed/gated entries already hold their
        # mode-determined values and a stale warm frequency would be wrong.
        warm_rows = np.minimum(warm, t["cap"])
        freqs = np.where(t["atm"] & (warm_rows > 0.0), warm_rows, freqs)

    power = np.zeros(b)
    iterations = np.zeros(b, dtype=np.int64)
    active = np.ones(b, dtype=bool)

    for iteration in range(1, max_iterations + 1):
        idx = np.nonzero(active)[0]
        if len(idx) == b:
            sub = t
        else:
            sub = {**shared, **{key: value[idx] for key, value in tables.items()}}
        sub_power = _power(sub, freqs[idx], vdd[idx], temperature[idx])
        sub_vdd = sub["vrm_voltage"] - (
            sub["pdn_resistance_ohm"] * sub_power / sub["vrm_voltage"]
        )
        if np.any(sub_vdd <= 0.0):
            raise ConfigurationError(
                "chip load collapses the supply during the solve"
            )
        sub_temp = sub["ambient_c"] + sub["thermal_resistance"] * sub_power
        new_freqs = _frequencies(sub, sub_vdd, sub_temp)
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
        stuck = int(np.nonzero(active)[0][0])
        raise SimulationError(
            f"{chip_id_of(stuck)}: steady-state solve did not converge in "
            f"{max_iterations} iterations"
        )

    freq_rows = freqs.tolist()
    powers, vdds, temps = power.tolist(), vdd.tolist(), temperature.tolist()
    counts = iterations.tolist()
    return [
        ChipSteadyState(
            freqs_mhz=tuple(freq_rows[row][: len(assignments)]),
            chip_power_w=powers[row],
            vdd=vdds[row],
            temperature_c=temps[row],
            iterations=counts[row],
            assignments=tuple(assignments),
        )
        for row, assignments in enumerate(rows)
    ]


def solve_many_compiled(
    compiled: CompiledChip,
    rows: Sequence[tuple],
    *,
    warm_start=None,
    tolerance_mhz: float = TOLERANCE_MHZ,
    max_iterations: int = MAX_ITERATIONS,
) -> list:
    """Converge K assignment vectors of one chip simultaneously.

    The chip's arrays reach the kernel as they are and broadcast across
    the rows.  ``warm_start`` (a prior state of this chip, or ``None``)
    seeds every row.  Returns one
    :class:`~repro.atm.chip_sim.ChipSteadyState` per row, in input
    order.  Raises :class:`SimulationError` if any row fails to converge
    within the iteration budget.
    """
    if not rows:
        return []
    n = compiled.n_cores
    tables = flatten_rows(rows, [compiled.preset_code.tolist()] * len(rows), n)
    tables["nominal_total"] = (
        compiled.base_delay_ps
        + compiled.insert_table_ps[np.arange(n), tables.pop("code")]
        + compiled.slack_ps
    )
    warm = None
    if warm_start is not None:
        warm = np.asarray(warm_start.freqs_mhz, dtype=np.float64)
        if warm.shape != (n,):
            raise ConfigurationError(
                f"warm start must carry {n} core frequencies"
            )
    return converge(
        tables,
        {name: getattr(compiled, name) for name in CHIP_PARAMETERS},
        rows,
        warm=warm,
        chip_id_of=lambda _row: compiled.chip.chip_id,
        tolerance_mhz=tolerance_mhz,
        max_iterations=max_iterations,
    )
