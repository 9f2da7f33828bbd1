"""Fleet-scale batched fixed point: converge many chips' rows at once.

Population-style studies (Table I / Fig. 7 limit distributions,
sampled-fleet characterization) solve many chips, not just many rows of
one chip.  This module stacks N compiled chips into one
:class:`CompiledPopulation`, and :func:`solve_population_compiled`
gathers each (chip, row)'s parameters from the stack and converges the
whole fleet's rows with the one fixed-point kernel of
:mod:`repro.fastpath.solver`, the same kernel the one-chip entry
:func:`~repro.fastpath.solver.solve_many_compiled` feeds.

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
``chip.*`` metrics therefore match a per-chip ``solve_many`` loop.  Memo
and store traffic is counted only in ``SolveCache.stats()`` and
``SolveStore.stats()``: it reflects LRU history and what is on disk, not
the run.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import ConfigurationError
from ..obs.metrics import identity_tick
from ..obs.runtime import get_obs
from .cache import get_solve_cache
from .compiled import CompiledChip
from .store import (
    KIND_STATE,
    decode_state,
    encode_state,
    get_store,
    state_key,
)
from .solver import (
    CHIP_PARAMETERS,
    MAX_ITERATIONS,
    TOLERANCE_MHZ,
    converge,
    flatten_rows,
    solve_many_compiled,
)


#: Per-core tables of a stacked population and the neutral value each
#: holds in a phantom lane (base delay 1 ps, V_t 0, alpha 1, zero power
#: coefficients): phantom lanes stay finite in every expression and the
#: gate mask zeroes them before they can reach a result.
_PHANTOM = {
    "base_delay_ps": 1.0,
    "v_threshold": 0.0,
    "alpha": 1.0,
    "nominal_alpha_factor": 1.0,
    "temp_coeff": 0.0,
    "leakage_w": 0.0,
    "ceff_w_per_ghz": 0.0,
    "leakage_temp_coeff": 0.0,
}

#: Per-chip scalars of a stacked population, one (N,) vector each.
_CHIP_SCALARS = (
    "slack_ps",
    "vrm_voltage",
    "pdn_resistance_ohm",
    "uncore_power_w",
    "ambient_c",
    "thermal_resistance",
)


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
        "insert_table_ps",
        "preset_code",
        *_PHANTOM,
        *_CHIP_SCALARS,
    )

    def __init__(self, chips: Sequence[CompiledChip]):
        if not chips:
            raise ConfigurationError("population must contain at least one chip")
        self.chips = tuple(chips)
        n_chips = self.n_chips = len(self.chips)
        n_max = self.n_cores_max = max(c.n_cores for c in self.chips)
        codes_max = max(c.insert_table_ps.shape[1] for c in self.chips)
        self.n_cores = np.array([c.n_cores for c in self.chips], dtype=np.int64)

        for name, neutral in _PHANTOM.items():
            table = np.full((n_chips, n_max), neutral)
            for row, chip in enumerate(self.chips):
                table[row, : chip.n_cores] = getattr(chip, name)
            setattr(self, name, table)
        insert = np.zeros((n_chips, n_max, codes_max), dtype=np.float64)
        preset = np.zeros((n_chips, n_max), dtype=np.int64)
        for row, chip in enumerate(self.chips):
            n = chip.n_cores
            table = chip.insert_table_ps
            insert[row, :n, : table.shape[1]] = table
            # Same padding rule as CompiledChip: short rows repeat their
            # final cumulative value out to the fleet-wide code range.
            insert[row, :n, table.shape[1]:] = table[:, -1:]
            preset[row, :n] = chip.preset_code
        self.insert_table_ps = insert
        self.preset_code = preset
        for name in _CHIP_SCALARS:
            setattr(
                self,
                name,
                np.array([getattr(c, name) for c in self.chips], dtype=np.float64),
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

    Gathers each row's chip parameters from ``population`` and runs the
    :mod:`repro.fastpath.solver` kernel over them.  ``warm_freqs``
    optionally carries one per-row frequency vector (or ``None``) to
    seed that row's ATM lanes.  Returns one
    :class:`~repro.atm.chip_sim.ChipSteadyState` per row, in input order,
    with frequencies sliced back to each chip's own core count.  Raises
    :class:`SimulationError` if any row fails to converge.
    """
    if not row_specs:
        return []
    if warm_freqs is not None and len(warm_freqs) != len(row_specs):
        raise ConfigurationError(
            "warm_freqs must supply one entry (or None) per row"
        )
    b = len(row_specs)
    n_max = population.n_cores_max
    n_cores = population.n_cores.tolist()
    chip_index = np.empty(b, dtype=np.intp)
    for row, (ci, assignments) in enumerate(row_specs):
        if not (0 <= ci < population.n_chips):
            raise ConfigurationError(
                f"chip index must be in [0, {population.n_chips}), got {ci}"
            )
        if len(assignments) != n_cores[ci]:
            raise ConfigurationError(
                f"chip {ci}: need {n_cores[ci]} assignments, "
                f"got {len(assignments)}"
            )
        chip_index[row] = ci
    rows = [assignments for _ci, assignments in row_specs]
    presets = population.preset_code.tolist()
    tables = flatten_rows(
        rows, [presets[ci] for ci, _row in row_specs], n_max
    )
    tables["nominal_total"] = (
        population.base_delay_ps[chip_index]
        + population.insert_table_ps[
            chip_index[:, None], np.arange(n_max)[None, :], tables.pop("code")
        ]
        + population.slack_ps[chip_index][:, None]
    )
    for name in CHIP_PARAMETERS:
        tables[name] = getattr(population, name)[chip_index]

    warm_matrix = None
    if warm_freqs is not None:
        for row, warm in enumerate(warm_freqs):
            if warm is None:
                continue
            warm_row = np.asarray(warm, dtype=np.float64)
            n = len(rows[row])
            if warm_row.shape != (n,):
                raise ConfigurationError(
                    f"warm start for row {row} must carry {n} core frequencies"
                )
            if warm_matrix is None:
                # Unseeded rows and phantom lanes stay 0.0, which the
                # kernel never seeds from.
                warm_matrix = np.zeros((b, n_max))
            warm_matrix[row, :n] = warm_row

    return converge(
        tables,
        {},
        rows,
        warm=warm_matrix,
        chip_id_of=lambda row: population.chips[chip_index[row]].chip.chip_id,
        tolerance_mhz=tolerance_mhz,
        max_iterations=max_iterations,
    )


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
    if store is not None:
        for slot, (entry_index, row) in enumerate(batch):
            compiled, _rows, warm = entries[entry_index]
            store_keys[slot] = state_key(compiled.fingerprint, row, warm)
            payload = store.get(KIND_STATE, store_keys[slot])
            if payload is not None:
                solved[slot] = decode_state(payload, row)
                if solved[slot] is None:
                    store.reject(KIND_STATE, store_keys[slot])
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
            warm_freqs=[None if w is None else w.freqs_mhz for w in warms],
        )
    for slot, state in zip(live, live_solved):
        solved[slot] = state

    if store is not None and store.writable:
        for slot in live:
            store.put(KIND_STATE, store_keys[slot], encode_state(solved[slot]))
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
    for (compiled, rows, _warm), states, (missed, served) in zip(
        entries, results, pending
    ):
        for row_index, slot in missed + served:
            states[row_index] = solved[slot]
        for row_index, slot in missed:
            cache.put((compiled.fingerprint, rows[row_index]), solved[slot])
        if not obs.enabled or not missed:
            continue
        obs.metrics.counter("chip.solves").inc(len(missed))
        for _row_index, slot in missed:
            obs.metrics.histogram("chip.solve_iterations").observe(
                float(solved[slot].iterations)
            )
        # Tick = hashed chip id: partition-invariant, so the merged
        # gauge's "last" is identical no matter which worker solved this
        # chip (see identity_tick).
        obs.metrics.gauge("chip.power_w").set(
            float(solved[missed[-1][1]].chip_power_w),
            tick=identity_tick(compiled.chip.chip_id),
        )
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
    from ..atm.chip_sim import check_assignment_rows

    warms = list(warm_starts) if warm_starts is not None else [None] * len(sims)
    entries = []
    for sim, rows, warm in zip(sims, rows_per_chip, warms):
        tuples = [tuple(row) for row in rows]
        check_assignment_rows(
            sim.chip.chip_id,
            [core.label for core in sim.chip.cores],
            [core.preset_code for core in sim.chip.cores],
            tuples,
        )
        entries.append((sim.compiled, tuples, warm))
    return solve_chips_cached(entries)
