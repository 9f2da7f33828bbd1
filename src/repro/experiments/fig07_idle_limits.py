"""Fig. 7 — per-core distributions of safe idle CPM delay reductions.

Runs the repeated idle-limit search for all 16 testbed cores and reports,
per core, the distribution of the most aggressive safe configuration
across trials (expected to be tight — spanning at most ~2 configurations)
together with the idle-limit frequency (lower bound of the distribution,
usually above 5000 MHz).
"""

from __future__ import annotations

from ..analysis.rendering import ascii_table
from ..atm.chip_sim import ChipSim
from ..core.characterize import Characterizer
from ..fastpath.population import solve_population
from ..rng import RngStreams
from ..silicon import power7plus_testbed
from .common import ExperimentResult


def run(seed: int = 2019, trials: int = 10) -> ExperimentResult:
    """Reproduce Fig. 7 across both testbed chips.

    Every chip's idle-limit row converges in one :func:`solve_population`
    batch.
    """
    server = power7plus_testbed(seed)
    characterizer = Characterizer(RngStreams(seed), trials=trials)

    sims = []
    rows_per_chip = []
    idle_by_chip = []
    for chip in server.chips:
        sim = ChipSim(chip)
        idle_results = {
            core.label: characterizer.characterize_idle(core) for core in chip.cores
        }
        limits = [idle_results[c.label].idle_limit for c in chip.cores]
        sims.append(sim)
        rows_per_chip.append([sim.uniform_assignments(reductions=limits)])
        idle_by_chip.append(idle_results)
    states = solve_population(sims, rows_per_chip)

    rows = []
    limit_freqs = {}
    spreads = []
    for chip, idle_results, chip_states in zip(
        server.chips, idle_by_chip, states
    ):
        state = chip_states[0]
        for index, core in enumerate(chip.cores):
            result = idle_results[core.label]
            dist = result.distribution
            freq = state.core_freq_mhz(index)
            limit_freqs[core.label] = freq
            spreads.append(dist.spread)
            rows.append(
                (
                    core.label,
                    dist.minimum,
                    dist.maximum,
                    dist.spread,
                    round(freq),
                )
            )

    body = ascii_table(
        ("core", "idle limit", "max observed", "distinct configs", "limit MHz"),
        rows,
        title="Fig. 7: idle-limit distributions and frequencies",
    )
    above_5ghz = sum(1 for f in limit_freqs.values() if f >= 5000.0)
    metrics = {
        "max_distribution_spread": float(max(spreads)),
        "cores_above_5ghz": float(above_5ghz),
        "max_limit_freq_mhz": max(limit_freqs.values()),
        "min_limit_freq_mhz": min(limit_freqs.values()),
    }
    return ExperimentResult(
        experiment_id="fig07",
        title="Idle-limit distributions per core",
        body=body,
        metrics=metrics,
    )
