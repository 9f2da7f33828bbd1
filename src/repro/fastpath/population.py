"""Fleet-scale batched fixed point: converge many chips' rows at once.

PR 3 made the steady-state solve array-native *within* one chip
(:func:`repro.fastpath.solver.solve_many_compiled` converges K assignment
rows against a single :class:`CompiledChip`); population-style studies —
Table I / Fig. 7 limit distributions, sampled-fleet characterization —
still re-entered the solver once per chip.  This module stacks N compiled
chips into one :class:`CompiledPopulation` and converges the whole fleet's
assignment batches as a single masked fixed point with per-(chip, row)
convergence freezing and warm starts.

Stacking and padding rules
--------------------------

Chips may differ in core count and in inserted-delay table length, so the
stacked arrays are padded to the fleet maxima:

* inserted-delay tables are padded column-wise with each row's final
  cumulative value — the same rule :class:`CompiledChip` applies to its own
  short rows; codes past a core's table are rejected upstream, so the
  padding is never observable;
* cores past a chip's own core count are *phantom cores*: power-gated in
  every row (zero frequency, zero power), with neutral physics
  (``V_t = 0``, ``alpha = 1``, zero power coefficients) so no padded lane
  can overflow, divide by zero, or contribute to a row's convergence test.

For batches of equal-core-count chips every elementwise operation sees
bit-identical operands to the per-chip solver, so results are bitwise
equal to ``solve_many``; mixed core counts add only trailing ``+ 0.0``
terms and are property-tested to agree within 1e-9 MHz.

Solve memo
----------

:func:`solve_chips_cached` is the shared orchestration behind both
:meth:`repro.atm.chip_sim.ChipSim.solve_many` (one chip) and
:func:`solve_population` (many chips).  Every row is looked up in the
process memo (:mod:`repro.fastpath.cache`), all misses converge as one
batch, and their states enter the memo only after that batch returns, so
a failed solve publishes nothing.  A row that an earlier entry of the same
call already missed (a twin chip with the same content-addressed
fingerprint) is served from that solve and counts as a memo hit; a row
repeated inside one entry is solved once per occurrence.  States and
``chip.*`` metrics therefore match a per-chip ``solve_many`` loop.  The
``fastpath.cache.*`` counters reflect LRU history, so they are
execution-scoped and stay out of run manifests.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..obs.metrics import identity_tick
from ..obs.runtime import get_obs
from ..units import AMBIENT_TEMPERATURE_C, NOMINAL_VDD, STATIC_MARGIN_MHZ
from .cache import get_solve_cache
from .compiled import CompiledChip
from .store import (
    KIND_STATE,
    decode_state,
    encode_state,
    get_store,
    publish_store_counters,
    state_key,
)
from .solver import MAX_ITERATIONS, TOLERANCE_MHZ, solve_many_compiled


class CompiledPopulation:
    """Stacked array view of N compiled chips for the fleet solver.

    Per-core tables become (N, max cores) matrices, inserted-delay tables
    a (N, max cores, max codes) cube, per-chip scalars (N,) vectors.  See
    the module docstring for the padding rules.
    """

    __slots__ = (
        "chips",
        "n_chips",
        "n_cores_max",
        "n_cores",
        "core_active",
        "base_delay_ps",
        "insert_table_ps",
        "slack_ps",
        "v_threshold",
        "alpha",
        "nominal_alpha_factor",
        "temp_coeff",
        "leakage_w",
        "ceff_w_per_ghz",
        "leakage_temp_coeff",
        "preset_code",
        "vrm_voltage",
        "pdn_resistance_ohm",
        "uncore_power_w",
        "ambient_c",
        "thermal_resistance",
        "fingerprints",
    )

    def __init__(self, chips: Sequence[CompiledChip]):
        if not chips:
            raise ConfigurationError("population must contain at least one chip")
        self.chips = tuple(chips)
        n_chips = len(self.chips)
        self.n_chips = n_chips
        n_max = max(c.n_cores for c in self.chips)
        codes_max = max(c.insert_table_ps.shape[1] for c in self.chips)
        self.n_cores_max = n_max
        self.n_cores = np.array([c.n_cores for c in self.chips], dtype=np.int64)

        active = np.zeros((n_chips, n_max), dtype=bool)
        # Neutral phantom physics: base delay 1 ps, V_t 0, alpha 1 — the
        # phantom lanes stay finite in every expression and are zeroed by
        # the gate mask before they can reach a result.
        base_delay = np.ones((n_chips, n_max), dtype=np.float64)
        insert = np.zeros((n_chips, n_max, codes_max), dtype=np.float64)
        v_threshold = np.zeros((n_chips, n_max), dtype=np.float64)
        alpha = np.ones((n_chips, n_max), dtype=np.float64)
        naf = np.ones((n_chips, n_max), dtype=np.float64)
        temp_coeff = np.zeros((n_chips, n_max), dtype=np.float64)
        leakage = np.zeros((n_chips, n_max), dtype=np.float64)
        ceff = np.zeros((n_chips, n_max), dtype=np.float64)
        leak_temp = np.zeros((n_chips, n_max), dtype=np.float64)
        preset = np.zeros((n_chips, n_max), dtype=np.int64)

        for row, chip in enumerate(self.chips):
            n = chip.n_cores
            active[row, :n] = True
            base_delay[row, :n] = chip.base_delay_ps
            table = chip.insert_table_ps
            insert[row, :n, : table.shape[1]] = table
            # Same padding rule as CompiledChip: short rows repeat their
            # final cumulative value out to the fleet-wide code range.
            insert[row, :n, table.shape[1]:] = table[:, -1:]
            v_threshold[row, :n] = chip.v_threshold
            alpha[row, :n] = chip.alpha
            naf[row, :n] = chip.nominal_alpha_factor
            temp_coeff[row, :n] = chip.temp_coeff
            leakage[row, :n] = chip.leakage_w
            ceff[row, :n] = chip.ceff_w_per_ghz
            leak_temp[row, :n] = chip.leakage_temp_coeff
            preset[row, :n] = chip.preset_code

        self.core_active = active
        self.base_delay_ps = base_delay
        self.insert_table_ps = insert
        self.slack_ps = np.array(
            [c.slack_ps for c in self.chips], dtype=np.float64
        )
        self.v_threshold = v_threshold
        self.alpha = alpha
        self.nominal_alpha_factor = naf
        self.temp_coeff = temp_coeff
        self.leakage_w = leakage
        self.ceff_w_per_ghz = ceff
        self.leakage_temp_coeff = leak_temp
        self.preset_code = preset
        self.vrm_voltage = np.array(
            [c.vrm_voltage for c in self.chips], dtype=np.float64
        )
        self.pdn_resistance_ohm = np.array(
            [c.pdn_resistance_ohm for c in self.chips], dtype=np.float64
        )
        self.uncore_power_w = np.array(
            [c.uncore_power_w for c in self.chips], dtype=np.float64
        )
        self.ambient_c = np.array(
            [c.ambient_c for c in self.chips], dtype=np.float64
        )
        self.thermal_resistance = np.array(
            [c.thermal_resistance for c in self.chips], dtype=np.float64
        )
        self.fingerprints = tuple(c.fingerprint for c in self.chips)


def _compile_population_rows(
    population: CompiledPopulation,
    row_specs: Sequence[tuple[int, tuple]],
) -> dict:
    """Flatten B (chip index, assignment tuple) rows into (B, n_max) arrays.

    Alongside the per-row assignment tables this gathers every per-core
    chip parameter the fixed point reads, so one iteration is pure array
    math over (B, n_max) operands — bit-identical, lane for lane, to what
    the per-chip solver computes for the same rows.
    """
    from ..atm.chip_sim import MarginMode

    n_max = population.n_cores_max
    b = len(row_specs)
    chip_index = np.empty(b, dtype=np.intp)
    atm = np.zeros((b, n_max), dtype=bool)
    gated = np.zeros((b, n_max), dtype=bool)
    code = np.zeros((b, n_max), dtype=np.int64)
    cap = np.full((b, n_max), np.inf)
    fixed_freq = np.zeros((b, n_max))
    activity = np.zeros((b, n_max))
    for row, (ci, assignments) in enumerate(row_specs):
        if not (0 <= ci < population.n_chips):
            raise ConfigurationError(
                f"chip index must be in [0, {population.n_chips}), got {ci}"
            )
        chip_index[row] = ci
        if len(assignments) != int(population.n_cores[ci]):
            raise ConfigurationError(
                f"chip {ci}: need {int(population.n_cores[ci])} assignments, "
                f"got {len(assignments)}"
            )
        # Phantom lanes past this chip's core count stay gated.
        gated[row, len(assignments):] = True
        preset_row = population.preset_code[ci]
        for col, assignment in enumerate(assignments):
            activity[row, col] = assignment.workload.activity
            if assignment.mode is MarginMode.ATM:
                atm[row, col] = True
                code[row, col] = preset_row[col] - assignment.reduction_steps
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
    cols = np.arange(n_max)
    nominal_total = (
        population.base_delay_ps[chip_index]
        + population.insert_table_ps[chip_index[:, None], cols[None, :], code]
        + population.slack_ps[chip_index][:, None]
    )
    return {
        "atm": atm,
        "gated": gated,
        "cap": cap,
        "fixed_freq": fixed_freq,
        "activity": activity,
        "nominal_total": nominal_total,
        # Per-row gathers of the chips' own tables and scalars.
        "v_threshold": population.v_threshold[chip_index],
        "alpha": population.alpha[chip_index],
        "nominal_alpha_factor": population.nominal_alpha_factor[chip_index],
        "temp_coeff": population.temp_coeff[chip_index],
        "leakage_w": population.leakage_w[chip_index],
        "ceff_w_per_ghz": population.ceff_w_per_ghz[chip_index],
        "leakage_temp_coeff": population.leakage_temp_coeff[chip_index],
        "vrm_voltage": population.vrm_voltage[chip_index],
        "pdn_resistance_ohm": population.pdn_resistance_ohm[chip_index],
        "uncore_power_w": population.uncore_power_w[chip_index],
        "ambient_c": population.ambient_c[chip_index],
        "thermal_resistance": population.thermal_resistance[chip_index],
        "chip_index": chip_index,
    }


def _population_frequencies(tables: dict, vdd, temperature):
    """Per-core frequencies (B, n_max) at the given per-row operating points."""
    v = vdd[:, None]
    if np.any(v <= tables["v_threshold"]):
        raise ConfigurationError(
            "vdd fell below a core's threshold voltage during the solve"
        )
    actual = v / ((v - tables["v_threshold"]) ** tables["alpha"])
    scale = (actual / tables["nominal_alpha_factor"]) * (
        1.0
        + tables["temp_coeff"] * (temperature[:, None] - AMBIENT_TEMPERATURE_C)
    )
    freqs = 1.0e6 / (tables["nominal_total"] * scale)
    freqs = np.minimum(freqs, tables["cap"])
    return np.where(tables["atm"], freqs, tables["fixed_freq"])


def _population_power(tables: dict, freqs, vdd, temperature):
    """Total chip power (B,) — phantom and gated lanes contribute nothing."""
    v_ratio_sq = (vdd / NOMINAL_VDD) ** 2
    power_freqs = np.where(freqs > 0.0, freqs, STATIC_MARGIN_MHZ)
    dynamic = (
        tables["ceff_w_per_ghz"]
        * tables["activity"]
        * v_ratio_sq[:, None]
        * (power_freqs / 1000.0)
    )
    leakage = (
        tables["leakage_w"]
        * v_ratio_sq[:, None]
        * (
            1.0
            + tables["leakage_temp_coeff"]
            * (temperature[:, None] - AMBIENT_TEMPERATURE_C)
        )
    )
    per_core = np.where(tables["gated"], 0.0, dynamic + leakage)
    return tables["uncore_power_w"] + per_core.sum(axis=1)


#: Keys of the (B, ...) arrays that convergence masking must slice.
_ROW_KEYS = (
    "atm",
    "gated",
    "cap",
    "fixed_freq",
    "activity",
    "nominal_total",
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


def solve_population_compiled(
    population: CompiledPopulation,
    row_specs: Sequence[tuple[int, tuple]],
    *,
    warm_freqs: Sequence | None = None,
    tolerance_mhz: float = TOLERANCE_MHZ,
    max_iterations: int = MAX_ITERATIONS,
) -> list:
    """Converge B (chip, assignment vector) rows as one masked fixed point.

    ``warm_freqs`` optionally carries one per-row frequency vector (or
    ``None``) to seed that row's ATM lanes.  Returns one
    :class:`~repro.atm.chip_sim.ChipSteadyState` per row, in input order,
    with frequencies sliced back to each chip's own core count.  Raises
    :class:`SimulationError` if any row fails to converge.
    """
    from ..atm.chip_sim import ChipSteadyState

    if not row_specs:
        return []
    if warm_freqs is not None and len(warm_freqs) != len(row_specs):
        raise ConfigurationError(
            "warm_freqs must supply one entry (or None) per row"
        )
    tables = _compile_population_rows(population, row_specs)
    b = len(row_specs)
    n_max = population.n_cores_max
    chip_index = tables["chip_index"]

    vdd = tables["vrm_voltage"].copy()
    temperature = tables["ambient_c"].copy()
    freqs = _population_frequencies(tables, vdd, temperature)
    if warm_freqs is not None:
        warm_matrix = np.zeros((b, n_max))
        seeded = np.zeros(b, dtype=bool)
        for row, warm in enumerate(warm_freqs):
            if warm is None:
                continue
            warm_row = np.asarray(warm, dtype=np.float64)
            n = int(population.n_cores[chip_index[row]])
            if warm_row.shape != (n,):
                raise ConfigurationError(
                    f"warm start for row {row} must carry {n} core frequencies"
                )
            warm_matrix[row, :n] = warm_row
            seeded[row] = True
        if seeded.any():
            warm_rows = np.minimum(warm_matrix, tables["cap"])
            freqs = np.where(
                seeded[:, None] & tables["atm"] & (warm_rows > 0.0),
                warm_rows,
                freqs,
            )

    power = np.zeros(b)
    iterations = np.zeros(b, dtype=np.int64)
    active = np.ones(b, dtype=bool)

    for iteration in range(1, max_iterations + 1):
        idx = np.nonzero(active)[0]
        sub = {key: tables[key][idx] for key in _ROW_KEYS}
        sub_power = _population_power(
            sub, freqs[idx], vdd[idx], temperature[idx]
        )
        sub_vdd = sub["vrm_voltage"] - (
            sub["pdn_resistance_ohm"] * sub_power / sub["vrm_voltage"]
        )
        if np.any(sub_vdd <= 0.0):
            raise ConfigurationError(
                "chip load collapses the supply during the solve"
            )
        sub_temp = sub["ambient_c"] + sub["thermal_resistance"] * sub_power
        new_freqs = _population_frequencies(sub, sub_vdd, sub_temp)
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
        chip_id = population.chips[chip_index[stuck]].chip.chip_id
        raise SimulationError(
            f"{chip_id}: steady-state solve did not converge in "
            f"{max_iterations} iterations"
        )

    states = []
    for row in range(b):
        n = int(population.n_cores[chip_index[row]])
        states.append(
            ChipSteadyState(
                freqs_mhz=tuple(float(f) for f in freqs[row, :n]),
                chip_power_w=float(power[row]),
                vdd=float(vdd[row]),
                temperature_c=float(temperature[row]),
                iterations=int(iterations[row]),
                assignments=tuple(row_specs[row][1]),
            )
        )
    return states


def _solve_batch(
    entries: Sequence[tuple], batch: list[tuple[int, tuple]]
) -> list:
    """Converged states for ``batch`` (one ``(entry index, row)`` per slot).

    Persistent-store layer: rows whose converged state is already on disk
    (same fingerprint, row, and warm seed — the content address covers the
    whole trajectory, so stored values are bitwise what a live solve would
    produce) are served without solving; only the remainder is solved.
    """
    store = get_store()
    solved: list = [None] * len(batch)
    store_keys: list = [None] * len(batch)
    corrupt_before = store.corrupt_entries if store is not None else 0
    if store is not None:
        for slot, (entry_index, row) in enumerate(batch):
            compiled, _rows, warm = entries[entry_index]
            store_keys[slot] = state_key(compiled.fingerprint, row, warm)
            payload = store.get(KIND_STATE, store_keys[slot])
            if payload is not None:
                solved[slot] = decode_state(payload, row)
    live = [slot for slot, state in enumerate(solved) if state is None]

    # Strategy choice (one-chip batch vs population stack) and the
    # population's chip set are decided from the *full* batch, not the
    # store-filtered remainder: the stacked array shapes — and therefore
    # every row's floating-point reduction order — must not depend on
    # which rows the store happened to hold.
    entry_order = list(dict.fromkeys(ei for ei, _row in batch))
    live_solved: list = []
    if live and len(entry_order) == 1:
        compiled, _rows, warm = entries[entry_order[0]]
        live_solved = solve_many_compiled(
            compiled, [batch[slot][1] for slot in live], warm_start=warm
        )
    elif live:
        chip_of_entry = {ei: i for i, ei in enumerate(entry_order)}
        warms = [entries[batch[slot][0]][2] for slot in live]
        live_solved = solve_population_compiled(
            CompiledPopulation([entries[ei][0] for ei in entry_order]),
            [(chip_of_entry[batch[slot][0]], batch[slot][1]) for slot in live],
            warm_freqs=(
                [None if w is None else w.freqs_mhz for w in warms]
                if any(w is not None for w in warms)
                else None
            ),
        )
    for slot, state in zip(live, live_solved):
        solved[slot] = state

    if store is not None:
        writes = 0
        if store.writable:
            for slot in live:
                if store.put(
                    KIND_STATE, store_keys[slot], encode_state(solved[slot])
                ):
                    writes += 1
        publish_store_counters(
            hits=len(batch) - len(live),
            misses=len(live),
            writes=writes,
            corrupt=store.corrupt_entries - corrupt_before,
        )
    return solved


def solve_chips_cached(entries: Sequence[tuple]) -> list[list]:
    """Memo-aware batched solve of ``(compiled, rows, warm_start)`` entries.

    The shared orchestration behind :meth:`ChipSim.solve_many` and
    :func:`solve_population`: look every row of every entry up in the
    solve memo, converge all missing rows as one batch (a single
    ``solve_many_compiled`` when only one chip has misses, a
    :class:`CompiledPopulation` solve otherwise), publish the new states,
    and account hits/misses/solve metrics per entry, in entry order.  See
    the module docstring for the memo rule.
    """
    cache = get_solve_cache()
    results: list[list] = []
    pending = []  # per entry: (missed, served), each [(row index, slot)]
    batch: list[tuple[int, tuple]] = []  # slot -> (entry index, row)
    in_batch: dict = {}  # memo key -> slot of an earlier entry's miss
    for entry_index, (compiled, rows, _warm) in enumerate(entries):
        states: list = [None] * len(rows)
        missed: list[tuple[int, int]] = []
        served: list[tuple[int, int]] = []
        for row_index, row in enumerate(rows):
            key = (compiled.fingerprint, row)
            slot = in_batch.get(key)
            if slot is not None:
                # An earlier entry's miss solves this row: a memo hit, as
                # a per-chip loop would have scored it.
                cache.hits += 1
                served.append((row_index, slot))
                continue
            states[row_index] = cache.get(key)
            if states[row_index] is None:
                missed.append((row_index, len(batch)))
                batch.append((entry_index, row))
        # Registered only after the entry's own lookups, so a row repeated
        # inside one entry misses (and is solved) once per occurrence.
        for row_index, slot in missed:
            in_batch[(compiled.fingerprint, rows[row_index])] = slot
        results.append(states)
        pending.append((missed, served))

    solved = _solve_batch(entries, batch) if batch else []
    obs = get_obs()
    evictions_before = cache.evictions
    for (compiled, rows, _warm), states, (missed, served) in zip(
        entries, results, pending
    ):
        for row_index, slot in missed + served:
            states[row_index] = solved[slot]
        for row_index, slot in missed:
            cache.put((compiled.fingerprint, rows[row_index]), solved[slot])
        if not obs.enabled:
            continue
        hits = len(rows) - len(missed)
        if hits:
            obs.metrics.counter("fastpath.cache.hits").inc(hits)
        if missed:
            obs.metrics.counter("fastpath.cache.misses").inc(len(missed))
            obs.metrics.counter("chip.solves").inc(len(missed))
            for _row_index, slot in missed:
                obs.metrics.histogram("chip.solve_iterations").observe(
                    float(solved[slot].iterations)
                )
            # Tick = hashed chip id: partition-invariant, so the merged
            # gauge's "last" is identical no matter which worker solved
            # this chip (see identity_tick).
            obs.metrics.gauge("chip.power_w").set(
                float(solved[missed[-1][1]].chip_power_w),
                tick=identity_tick(compiled.chip.chip_id),
            )
    evicted = cache.evictions - evictions_before
    if evicted and obs.enabled:
        obs.metrics.counter("fastpath.cache.evictions").inc(evicted)
    return results


def solve_population(
    sims: Sequence,
    rows_per_chip: Sequence[Sequence],
    *,
    warm_starts: Sequence | None = None,
) -> list[list]:
    """Converge every chip's assignment rows as one fleet-wide batch.

    ``sims`` are :class:`~repro.atm.chip_sim.ChipSim` instances and
    ``rows_per_chip[i]`` the assignment rows for ``sims[i]``;
    ``warm_starts`` optionally carries one prior
    :class:`~repro.atm.chip_sim.ChipSteadyState` (or ``None``) per chip.
    Returns one list of states per chip, in input order — the same
    nested shape, states, memo hits, and ``chip.*`` metrics as
    ``[sim.solve_many(rows) for sim, rows in zip(sims, rows_per_chip)]``.
    """
    if len(rows_per_chip) != len(sims):
        raise ConfigurationError(
            f"need one row batch per chip: {len(sims)} chips, "
            f"{len(rows_per_chip)} batches"
        )
    if warm_starts is not None and len(warm_starts) != len(sims):
        raise ConfigurationError(
            f"need one warm start (or None) per chip: {len(sims)} chips, "
            f"{len(warm_starts)} warm starts"
        )
    warms = list(warm_starts) if warm_starts is not None else [None] * len(sims)
    if not all(sim.uses_fastpath for sim in sims):
        # Reference-solver sims cannot join a batched solve; fall back to
        # the loop the contract is defined against.
        return [
            sim.solve_many(rows, warm_start=warm)
            for sim, rows, warm in zip(sims, rows_per_chip, warms)
        ]
    entries = []
    for sim, rows, warm in zip(sims, rows_per_chip, warms):
        tuples = [tuple(row) for row in rows]
        for row in tuples:
            sim.validate_assignments(row)
        entries.append((sim.compiled, tuples, warm))
    return solve_chips_cached(entries)
