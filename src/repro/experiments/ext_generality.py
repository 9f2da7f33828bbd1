"""Extension — the technique generalizes beyond the POWER7+ parameters.

Runs the complete, unchanged pipeline (characterize → deploy → predict →
manage) on two non-POWER platform configurations
(:mod:`repro.silicon.platforms`): a PSM-style four-core cluster with a
coarse margin sensor and a sixteen-core manycore on a weak power grid.
The qualitative conclusions must transfer:

* fine-tuning exposes inter-core variation (positive spread at the
  deployed limits) and gains frequency over the uniform default;
* the Eq. 1 frequency-vs-power relation stays linear, with a slope that
  tracks the platform's delivery resistance (manycore ≫ PSM cluster);
* the managed scenario beats the default-ATM scenario on both platforms.
"""

from __future__ import annotations

from ..analysis.rendering import ascii_table
from ..atm.chip_sim import ChipSim
from ..core.characterize import Characterizer
from ..core.freq_predictor import fit_core_frequency_models
from ..core.limits import LimitTable
from ..core.manager import AtmManager
from ..rng import RngStreams
from ..silicon.platforms import manycore_chip, psm_like_chip
from ..workloads.dnn import SQUEEZENET
from ..workloads.spec import GCC, X264
from ..workloads.parsec import FACESIM
from .common import ExperimentResult

#: Compact profiling population (anchors preserved: x264 worst, gcc light).
PROFILE_APPS = (GCC, X264, FACESIM)


def _pipeline(chip, seed: int) -> dict[str, float]:
    sim = ChipSim(chip)
    characterizer = Characterizer(RngStreams(seed), trials=4)
    characterization = characterizer.characterize_chips(
        [chip], applications=PROFILE_APPS
    )[chip.chip_id]
    limits = LimitTable(characterization.limits)
    reductions = tuple(limits.row("thread worst"))

    # Default and tuned rows converge as one batch.
    default_state, tuned_state = sim.solve_many(
        [
            sim.uniform_assignments(),
            sim.uniform_assignments(reductions=list(reductions)),
        ]
    )
    spread = max(tuned_state.freqs_mhz) - min(tuned_state.freqs_mhz)
    gain = max(tuned_state.freqs_mhz) - max(default_state.freqs_mhz)

    predictors = fit_core_frequency_models(sim, reductions)
    slopes = [p.mhz_per_watt for p in predictors.values()]
    r2 = min(p.fit.r_squared for p in predictors.values())

    manager = AtmManager(sim, limits)
    backgrounds = [X264] * (chip.n_cores - 1)
    default = manager.run_default_atm([SQUEEZENET], backgrounds)
    managed = manager.run_managed_max([SQUEEZENET], backgrounds)
    return {
        "spread_mhz": spread,
        "gain_mhz": gain,
        "slope_mhz_per_w": sum(slopes) / len(slopes),
        "min_r2": r2,
        "default_speedup": default.critical_speedups["squeezenet"],
        "managed_speedup": managed.critical_speedups["squeezenet"],
    }


def run(seed: int = 2019) -> ExperimentResult:
    """Run the pipeline on the PSM-like and manycore platforms."""
    platforms = {
        "PSM-like 4-core": psm_like_chip(seed),
        "manycore 16-core": manycore_chip(seed),
    }
    rows = []
    outcomes = {}
    for name, chip in platforms.items():
        outcome = _pipeline(chip, seed)
        outcomes[name] = outcome
        rows.append(
            (
                name,
                round(outcome["spread_mhz"]),
                round(outcome["gain_mhz"]),
                round(outcome["slope_mhz_per_w"], 2),
                round(100.0 * (outcome["managed_speedup"] - 1.0), 1),
            )
        )
    body = ascii_table(
        (
            "platform",
            "exposed spread MHz",
            "peak gain vs default MHz",
            "slope MHz/W",
            "managed gain %",
        ),
        rows,
        title="Unchanged pipeline on non-POWER platform configurations",
    )
    psm = outcomes["PSM-like 4-core"]
    manycore = outcomes["manycore 16-core"]
    metrics = {
        "psm_spread_mhz": psm["spread_mhz"],
        "manycore_spread_mhz": manycore["spread_mhz"],
        "psm_slope_mhz_per_w": psm["slope_mhz_per_w"],
        "manycore_slope_mhz_per_w": manycore["slope_mhz_per_w"],
        "slope_tracks_grid_weakness": 1.0
        if manycore["slope_mhz_per_w"] > psm["slope_mhz_per_w"]
        else 0.0,
        "linearity_min_r2": min(psm["min_r2"], manycore["min_r2"]),
        "managed_beats_default_everywhere": 1.0
        if all(
            o["managed_speedup"] >= o["default_speedup"] - 1e-9
            for o in outcomes.values()
        )
        else 0.0,
    }
    return ExperimentResult(
        experiment_id="ext_generality",
        title="Generality across ATM platforms",
        body=body,
        metrics=metrics,
    )
