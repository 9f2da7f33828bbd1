"""The per-chip, per-core process-variation draw, kept as the reference.

Each chip seeds its own ``sample.<chip_id>`` stream, factors the core
covariance afresh, draws its Gaussians one core at a time through
``normal`` and ``lognormal``, and calibrates each core's factory preset
with a Python loop, collecting each chip's values into a
:class:`ScalarDraw` of plain tuples.  :func:`repro.silicon.chipspec.draw_chips`
and :func:`~repro.silicon.chipspec.draw_chip` must match it exactly: every
field a :class:`~repro.silicon.chipspec.ChipDraw` view rebuilds from its
block row (:func:`draw_fields`), and every ``ConfigurationError``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import RngStreams
from repro.silicon.chipspec import (
    DEFAULT_INVERTER_STEP_PS,
    DEFAULT_THRESHOLD_UNITS,
    STRESS_THREAD_NORMAL,
    STRESS_THREAD_WORST,
    STRESS_UBENCH,
    _idle_operating_factor,
    core_label,
)
from repro.silicon.process import ProcessVariationModel
from repro.units import CORES_PER_CHIP, DEFAULT_ATM_IDLE_MHZ, mhz_to_cycle_ps, require_positive


@dataclass(frozen=True)
class ScalarDraw:
    """One chip's drawn values, as the :class:`~repro.silicon.chipspec.ChipDraw`
    tuple properties read them."""

    chip_id: str
    labels: tuple[str, ...]
    synth_base_ps: tuple[float, ...]
    preset_codes: tuple[int, ...]
    step_widths_ps: tuple[tuple[float, ...], ...]
    headroom_ps: tuple[float, ...]
    stress_curves: tuple[tuple[tuple[float, float], ...], ...]
    leakage_w: tuple[float, ...]
    ceff_w_per_ghz: tuple[float, ...]


def draw_fields(draw) -> ScalarDraw:
    """Every field of ``draw`` (a ``ChipDraw`` view or a :class:`ScalarDraw`)
    as Python values, for comparing a view with the reference."""
    return ScalarDraw(*(getattr(draw, field.name) for field in fields(ScalarDraw)))


@dataclass(frozen=True)
class CoreProcessProfile:
    """The manufacturing outcome of one core.

    ``speed_factor`` scales the core's nominal critical-path delay,
    ``cpm_step_widths_ps[i]`` is the delay removed when the code is
    lowered from ``i + 1`` to ``i``, and ``cpm_mismatch_ps`` is how far
    the core's worst real path exceeds what the CPM's synthetic path
    mimics.
    """

    speed_factor: float
    cpm_step_widths_ps: tuple[float, ...]
    cpm_mismatch_ps: float

    def __post_init__(self) -> None:
        require_positive(self.speed_factor, "speed_factor")
        if self.cpm_mismatch_ps < 0.0:
            raise ConfigurationError(
                f"cpm_mismatch_ps must be >= 0, got {self.cpm_mismatch_ps}"
            )
        if len(self.cpm_step_widths_ps) < 1:
            raise ConfigurationError("cpm_step_widths_ps must not be empty")
        for width in self.cpm_step_widths_ps:
            if width < 0.0:
                raise ConfigurationError(
                    f"CPM step widths must be >= 0, got {width}"
                )


def correlated_normals(
    model: ProcessVariationModel, rng: np.random.Generator, n_cores: int
) -> np.ndarray:
    """Draw ``n_cores`` standard normals with spatial correlation.

    Cores are modeled on a 1-D layout; the covariance between cores at
    distance ``d`` is ``exp(-d / correlation_length)``.
    """
    positions = np.arange(n_cores, dtype=float)
    distance = np.abs(positions[:, None] - positions[None, :])
    covariance = np.exp(-distance / model.correlation_length)
    # Cholesky with a small jitter for numerical robustness.
    chol = np.linalg.cholesky(covariance + 1e-10 * np.eye(n_cores))
    return chol @ rng.standard_normal(n_cores)


def sample_core_profiles(
    model: ProcessVariationModel, rng: np.random.Generator, n_cores: int
) -> list[CoreProcessProfile]:
    """Sample the manufacturing outcome of one chip's cores."""
    if n_cores < 1:
        raise ConfigurationError(f"n_cores must be >= 1, got {n_cores}")
    die_component = model.die_sigma * rng.standard_normal()
    core_components = model.core_sigma * correlated_normals(model, rng, n_cores)
    profiles = []
    for core_index in range(n_cores):
        speed = float(np.exp(die_component + core_components[core_index]))
        widths = sample_step_widths(model, rng, model.max_delay_code)
        mismatch = float(
            max(0.0, rng.normal(model.mismatch_mean_ps, model.mismatch_sigma_ps))
        )
        profiles.append(
            CoreProcessProfile(
                speed_factor=speed,
                cpm_step_widths_ps=widths,
                cpm_mismatch_ps=mismatch,
            )
        )
    return profiles


def sample_step_widths(
    model: ProcessVariationModel, rng: np.random.Generator, n_steps: int
) -> tuple[float, ...]:
    """Sample ``n_steps`` log-normal CPM step widths in picoseconds."""
    if n_steps < 1:
        raise ConfigurationError(f"n_steps must be >= 1, got {n_steps}")
    draws = rng.lognormal(
        mean=float(np.log(model.step_width_median_ps)),
        sigma=model.step_width_sigma,
        size=n_steps,
    )
    return tuple(float(w) for w in draws)


def stress_curve_from_profile(
    profile: CoreProcessProfile, rng: np.random.Generator
) -> tuple[tuple[float, float], ...]:
    """Sample a monotone stress-requirement curve for a random core."""
    base = profile.cpm_mismatch_ps
    ubench = max(0.3, rng.normal(0.25 * base + 1.0, 0.8))
    normal = ubench + max(0.2, rng.normal(0.35 * base + 1.0, 0.9))
    worst = normal + max(0.3, rng.normal(0.55 * base + 1.5, 1.2))
    return (
        (0.0, 0.0),
        (STRESS_UBENCH, float(ubench)),
        (STRESS_THREAD_NORMAL, float(normal)),
        (STRESS_THREAD_WORST, float(worst)),
    )


def scalar_draw_chip(
    seed: int,
    chip_id: str = "P0",
    *,
    n_cores: int = CORES_PER_CHIP,
    variation: ProcessVariationModel | None = None,
) -> ScalarDraw:
    """One chip's draw: its own stream, then one core at a time."""
    model = variation if variation is not None else ProcessVariationModel()
    streams = RngStreams(seed)
    rng = streams.stream(f"sample.{chip_id}")
    profiles = sample_core_profiles(model, rng, n_cores)

    operating_factor = _idle_operating_factor()
    base_total_ps = mhz_to_cycle_ps(DEFAULT_ATM_IDLE_MHZ) / operating_factor
    slack_ps = DEFAULT_THRESHOLD_UNITS * DEFAULT_INVERTER_STEP_PS

    median_insert = 12 * model.step_width_median_ps
    nominal_synth = base_total_ps - slack_ps - median_insert

    labels = []
    synth_bases = []
    presets = []
    widths_per_core = []
    headrooms = []
    curves = []
    leakages = []
    ceffs = []
    for core_index, profile in enumerate(profiles):
        label = core_label(int(chip_id[1:]) if chip_id[1:].isdigit() else 0, core_index)
        synth_base = nominal_synth * profile.speed_factor
        required_fill = base_total_ps - slack_ps - synth_base
        widths = profile.cpm_step_widths_ps
        cumulative = 0.0
        preset = len(widths)
        for code, width in enumerate(widths, start=1):
            cumulative += width
            if cumulative >= required_fill:
                preset = code
                break
        preset = max(2, preset)
        insert_at_preset = float(sum(widths[:preset]))
        synth_base = base_total_ps - slack_ps - insert_at_preset
        if synth_base <= 0.0:
            raise ConfigurationError(
                f"{chip_id} core {core_index}: sampled chip is non-physical"
            )
        headroom = float(
            np.clip(insert_at_preset - profile.cpm_mismatch_ps, 0.5, 26.0)
        )
        stress_curve = stress_curve_from_profile(profile, rng)
        labels.append(label)
        synth_bases.append(synth_base)
        presets.append(preset)
        widths_per_core.append(tuple(widths))
        headrooms.append(headroom)
        curves.append(stress_curve)
        leakages.append(float(1.2 * rng.uniform(0.85, 1.15)))
        ceffs.append(float(2.6 * rng.uniform(0.93, 1.07)))
    return ScalarDraw(
        chip_id=chip_id,
        labels=tuple(labels),
        synth_base_ps=tuple(synth_bases),
        preset_codes=tuple(presets),
        step_widths_ps=tuple(widths_per_core),
        headroom_ps=tuple(headrooms),
        stress_curves=tuple(curves),
        leakage_w=tuple(leakages),
        ceff_w_per_ghz=tuple(ceffs),
    )


def scalar_draw_chips(
    seed: int,
    indices,
    *,
    n_cores: int = CORES_PER_CHIP,
    variation: ProcessVariationModel | None = None,
) -> tuple[ScalarDraw, ...]:
    """Fleet chips ``F{i}``, one :func:`scalar_draw_chip` at a time."""
    return tuple(
        scalar_draw_chip(seed + i, chip_id=f"F{i}", n_cores=n_cores, variation=variation)
        for i in indices
    )
