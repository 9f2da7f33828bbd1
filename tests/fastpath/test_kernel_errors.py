"""Error paths of the one fixed-point kernel, through both of its entries.

``solve_many_compiled`` (one chip, its arrays broadcast) and
``solve_population_compiled`` (rows gathered from a stacked population)
run the same kernel, so each failure must read the same through either:
a row that does not converge names its own chip, a load that collapses
the supply or pulls vdd under a core's threshold is a
:class:`ConfigurationError`, and so is a warm start of the wrong length.
The one-chip entry runs as a chip-by-chip loop over the same rows.
"""

from dataclasses import replace

import pytest

from repro.atm.chip_sim import ChipSteadyState, CoreAssignment, MarginMode
from repro.errors import ConfigurationError, SimulationError
from repro.fastpath.compiled import CompiledChip
from repro.fastpath.population import CompiledPopulation, solve_population_compiled
from repro.fastpath.solver import solve_many_compiled
from repro.silicon import sample_chip

CORES = 4


def _chip_loop(chips, specs, *, warm=None, **kwargs):
    """Each chip's rows, in chip order, through the one-chip entry."""
    warm_start = (
        None
        if warm is None
        else ChipSteadyState(
            freqs_mhz=warm, chip_power_w=0.0, vdd=0.0, temperature_c=0.0,
            iterations=0,
        )
    )
    states = []
    for index, chip in enumerate(chips):
        rows = [row for ci, row in specs if ci == index]
        states += solve_many_compiled(chip, rows, warm_start=warm_start, **kwargs)
    return states


def _population(chips, specs, *, warm=None, **kwargs):
    """Every row as one batch through the population entry."""
    return solve_population_compiled(
        CompiledPopulation(chips),
        specs,
        warm_freqs=None if warm is None else [warm] * len(specs),
        **kwargs,
    )


ENTRIES = pytest.mark.parametrize(
    "solve",
    [_chip_loop, _population],
    ids=["solve_many_compiled", "solve_population_compiled"],
)


def _chip(seed, chip_id, **changes):
    return CompiledChip(
        replace(sample_chip(seed, chip_id=chip_id, n_cores=CORES), **changes)
    )


def _row(mode=MarginMode.ATM):
    return (CoreAssignment(mode=mode),) * CORES


def _pdn_for_supply(volts):
    """PDN resistance that drops an all-gated chip's supply to ``volts``.

    An all-gated row draws exactly the uncore power on the first
    iteration, so the IR drop there is ``R * P_uncore / V_vrm``.
    """
    chip = sample_chip(1, n_cores=CORES)
    return (chip.vrm_voltage - volts) * chip.vrm_voltage / chip.uncore_power_w


@ENTRIES
def test_non_convergence_names_the_stuck_chip(solve):
    chips = [_chip(11, "first"), _chip(12, "stuck")]
    # Static rows converge on the first iteration; the ATM row needs more.
    specs = [
        (0, _row(MarginMode.STATIC)),
        (1, _row(MarginMode.STATIC)),
        (1, _row()),
    ]
    with pytest.raises(SimulationError) as error:
        solve(chips, specs, max_iterations=1)
    assert str(error.value) == (
        "stuck: steady-state solve did not converge in 1 iterations"
    )
    # The same rows converge with the default budget.
    assert len(solve(chips, specs)) == len(specs)


@ENTRIES
def test_supply_collapse(solve):
    vrm = sample_chip(1, n_cores=CORES).vrm_voltage
    chips = [
        _chip(11, "healthy"),
        _chip(12, "collapsed", pdn_resistance_ohm=_pdn_for_supply(-vrm)),
    ]
    specs = [(0, _row()), (1, _row(MarginMode.GATED))]
    with pytest.raises(
        ConfigurationError, match="chip load collapses the supply during the solve"
    ):
        solve(chips, specs)


@ENTRIES
def test_vdd_below_threshold(solve):
    v_threshold = sample_chip(1, n_cores=CORES).cores[0].synth_path.v_threshold
    chips = [
        _chip(11, "healthy"),
        _chip(12, "sagging", pdn_resistance_ohm=_pdn_for_supply(v_threshold / 2)),
    ]
    specs = [(0, _row()), (1, _row(MarginMode.GATED))]
    with pytest.raises(
        ConfigurationError,
        match="vdd fell below a core's threshold voltage during the solve",
    ):
        solve(chips, specs)


@ENTRIES
def test_warm_start_of_the_wrong_length(solve):
    chips = [_chip(11, "a"), _chip(12, "b")]
    specs = [(0, _row()), (1, _row())]
    with pytest.raises(
        ConfigurationError,
        match=rf"warm start (for row 0 )?must carry {CORES} core frequencies",
    ):
        solve(chips, specs, warm=(4000.0,) * (CORES - 1))
