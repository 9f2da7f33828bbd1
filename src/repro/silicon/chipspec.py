"""Chip and server specifications, including the paper's testbed.

A :class:`CoreSpec` captures everything the rest of the library needs to
know about one core's silicon:

* the CPM **synthetic-path timing model** (per-core base delay → the core's
  intrinsic speed),
* the factory **preset inserted-delay code** and the per-step widths of the
  inserted-delay configuration (the fine-tuning knob, with its non-linear
  graduation),
* the **protection headroom**: how much of the preset inserted delay is pure
  guardband on this core, beyond what its worst real path needs at idle,
* a **stress-requirement curve** mapping a workload's stress intensity to
  the extra protection (in picoseconds) the core needs to stay safe under
  that workload — the per-core embodiment of the paper's finding that both
  the application *and* the core determine the safe CPM setting (Fig. 10),
* a per-core **power model** (leakage + effective switching capacitance).

Two factories build complete servers:

:func:`power7plus_testbed`
    The paper's two POWER7+ chips.  Because the real silicon is
    proprietary hardware we cannot access, each core's parameters are
    *inverse-modeled* from the paper's published per-core measurements —
    the factory preset range of Fig. 4b and the four limit rows of
    Table I — so that running the (fully general) characterization
    procedure of :mod:`repro.core.characterize` on the simulated server
    reproduces the paper's tables.  See DESIGN.md §2 for the substitution
    argument.

:func:`sample_chip`
    Randomly manufactured chips drawn from
    :class:`repro.silicon.process.ProcessVariationModel`, with factory
    presets chosen by the calibration procedure in
    :mod:`repro.cpm.calibration`.  These generalize every experiment
    beyond the two published chips.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..rng import RngStreams, seeded_streams
from ..units import (
    AMBIENT_TEMPERATURE_C,
    CORES_PER_CHIP,
    CHIPS_PER_SERVER,
    DEFAULT_ATM_IDLE_MHZ,
    NOMINAL_VDD,
    mhz_to_cycle_ps,
    require_positive,
)
from .paths import PathTimingModel, alpha_power_delay_factor
from .process import ProcessVariationModel, core_covariance_factor

# ---------------------------------------------------------------------------
# Electrical defaults shared by both factories
# ---------------------------------------------------------------------------

#: Effective power-delivery-path resistance (ohms).  Chosen so the measured
#: frequency-vs-chip-power slope lands near the paper's ~2 MHz/W (Fig. 12a).
DEFAULT_PDN_RESISTANCE_OHM = 7.0e-4

#: Non-core (caches beyond L2 slices, interconnect, memory controllers)
#: power of one chip, in watts.
DEFAULT_UNCORE_POWER_W = 11.0

#: Picoseconds of timing represented by one inverter of the CPM output
#: chain (the quantization unit of the margin measurement).
DEFAULT_INVERTER_STEP_PS = 1.7

#: DPLL margin threshold in inverter units: the control loop holds the
#: measured margin at this value.
DEFAULT_THRESHOLD_UNITS = 2

#: Assumed chip power with the system idle, used only to place the idle
#: operating point during testbed inverse modeling.  Matches the converged
#: idle power of the steady-state solver on the testbed chips.
_IDLE_CHIP_POWER_W = 26.1

#: Die temperature assumed at the idle operating point.
_IDLE_TEMPERATURE_C = 45.0


@dataclass(frozen=True)
class CorePowerSpec:
    """Electrical power model of one core.

    Dynamic power is ``ceff_w_per_ghz * activity * (V / V_nom)^2 * f_GHz``;
    leakage grows mildly with temperature and quadratically with voltage.
    """

    leakage_w: float = 1.2
    ceff_w_per_ghz: float = 2.6
    leakage_temp_coeff_per_c: float = 0.008

    def __post_init__(self) -> None:
        require_positive(self.leakage_w, "leakage_w")
        require_positive(self.ceff_w_per_ghz, "ceff_w_per_ghz")

    def power_w(
        self,
        freq_mhz: float,
        activity: float,
        vdd: float = NOMINAL_VDD,
        temperature_c: float = AMBIENT_TEMPERATURE_C,
    ) -> float:
        """Return core power in watts at the given operating point."""
        if activity < 0.0:
            raise ConfigurationError(f"activity must be >= 0, got {activity}")
        require_positive(freq_mhz, "freq_mhz")
        v_ratio = vdd / NOMINAL_VDD
        dynamic = self.ceff_w_per_ghz * activity * v_ratio**2 * (freq_mhz / 1000.0)
        leakage = (
            self.leakage_w
            * v_ratio**2
            * (1.0 + self.leakage_temp_coeff_per_c * (temperature_c - AMBIENT_TEMPERATURE_C))
        )
        return dynamic + leakage


@dataclass(frozen=True)
class CoreSpec:
    """Complete silicon description of one core.

    Attributes
    ----------
    label:
        Paper-style identifier, e.g. ``"P0C3"``.
    synth_path:
        Timing model of the CPM synthetic path (per-core base delay encodes
        the core's intrinsic process speed).
    preset_code:
        Factory preset inserted-delay code (Fig. 4b).  ATM fine-tuning
        reduces the effective code below this value.
    step_widths_ps:
        Width of each inserted-delay code step, indexed by code:
        ``step_widths_ps[i]`` is the delay added when raising the code from
        ``i`` to ``i + 1``.  Length must be at least ``preset_code``.
    protection_headroom_ps:
        Guardband (at nominal conditions) that the preset configuration
        provides beyond the core's idle requirement.  Reducing the code by
        ``k`` steps is safe under a workload needing ``S`` ps of protection
        iff ``reduction_ps(k) + S <= protection_headroom_ps``.
    stress_curve:
        Monotone piecewise-linear curve, as a tuple of ``(stress, ps)``
        points with ``stress`` in [0, 1], giving the protection requirement
        ``S`` for a workload of that stress intensity on *this* core.
    power:
        The core's electrical power model.
    """

    label: str
    synth_path: PathTimingModel
    preset_code: int
    step_widths_ps: tuple[float, ...]
    protection_headroom_ps: float
    stress_curve: tuple[tuple[float, float], ...]
    power: CorePowerSpec = field(default_factory=CorePowerSpec)

    def __post_init__(self) -> None:
        if self.preset_code < 1:
            raise ConfigurationError(
                f"{self.label}: preset_code must be >= 1, got {self.preset_code}"
            )
        if len(self.step_widths_ps) < self.preset_code:
            raise ConfigurationError(
                f"{self.label}: need at least {self.preset_code} step widths, "
                f"got {len(self.step_widths_ps)}"
            )
        if any(w < 0.0 for w in self.step_widths_ps):
            raise ConfigurationError(f"{self.label}: step widths must be >= 0")
        if self.protection_headroom_ps < 0.0:
            raise ConfigurationError(
                f"{self.label}: protection_headroom_ps must be >= 0"
            )
        if not self.stress_curve or self.stress_curve[0] != (0.0, 0.0):
            raise ConfigurationError(
                f"{self.label}: stress_curve must start at (0.0, 0.0)"
            )
        previous_stress, previous_ps = self.stress_curve[0]
        for stress, ps in self.stress_curve[1:]:
            if stress <= previous_stress or ps < previous_ps:
                raise ConfigurationError(
                    f"{self.label}: stress_curve must be strictly increasing in "
                    f"stress and non-decreasing in ps"
                )
            previous_stress, previous_ps = stress, ps
        # Derived lookup tables.  The spec is frozen, so these are attached
        # through object.__setattr__; neither participates in equality or
        # hashing.  ``_insert_cumsum_ps[c]`` accumulates the step widths
        # left-to-right, exactly like the summation in inserted_delay_ps()
        # used to, so cached and recomputed values are bit-identical.
        cumsum = [0.0]
        for width in self.step_widths_ps:
            cumsum.append(cumsum[-1] + width)
        object.__setattr__(self, "_insert_cumsum_ps", tuple(cumsum))
        object.__setattr__(self, "_protection_cache", {})
        object.__setattr__(self, "_slack_rows", {})

    # -- inserted-delay geometry -------------------------------------------

    def inserted_delay_ps(self, code: int) -> float:
        """Total inserted delay (nominal ps) at delay code ``code``."""
        if not (0 <= code <= len(self.step_widths_ps)):
            raise ConfigurationError(
                f"{self.label}: code must be in [0, {len(self.step_widths_ps)}], "
                f"got {code}"
            )
        return self._insert_cumsum_ps[code]

    def reduction_ps(self, steps: int) -> float:
        """Delay removed by reducing the preset code by ``steps`` steps."""
        if not (0 <= steps <= self.preset_code):
            raise ConfigurationError(
                f"{self.label}: steps must be in [0, {self.preset_code}], got {steps}"
            )
        return self.inserted_delay_ps(self.preset_code) - self.inserted_delay_ps(
            self.preset_code - steps
        )

    def step_width_of_reduction(self, step: int) -> float:
        """Width (ps) of the ``step``-th reduction step (1-based)."""
        if not (1 <= step <= self.preset_code):
            raise ConfigurationError(
                f"{self.label}: reduction step must be in [1, {self.preset_code}]"
            )
        return self.step_widths_ps[self.preset_code - step]

    # -- safety model --------------------------------------------------------

    def required_protection_ps(self, stress: float) -> float:
        """Protection (ps) this core needs under a workload of ``stress``.

        Piecewise-linear interpolation over :attr:`stress_curve`; stress
        beyond the last anchor extrapolates along the final segment, so
        hypothetical super-worst-case workloads demand even more protection.
        """
        if stress < 0.0:
            raise ConfigurationError(f"stress must be >= 0, got {stress}")
        # Workloads use a handful of distinct stress levels, and the probe
        # loops of characterization ask for the same ones millions of times;
        # memoize per stress value.  The cached entry is produced by the
        # same interpolation below, so memoized and direct answers are
        # bit-identical.
        cached = self._protection_cache.get(stress)
        if cached is not None:
            return cached
        points = self.stress_curve
        if stress <= points[-1][0]:
            xs = [p[0] for p in points]
            ys = [p[1] for p in points]
            value = float(np.interp(stress, xs, ys))
        else:
            (x0, y0), (x1, y1) = points[-2], points[-1]
            slope = (y1 - y0) / (x1 - x0)
            value = float(y1 + slope * (stress - x1))
        self._protection_cache[stress] = value
        return value

    def margin_slack_ps(self, reduction_steps: int, stress: float) -> float:
        """Signed safety slack at ``reduction_steps`` under ``stress``.

        Positive means safe with that much room; negative means the
        configuration violates timing by that many picoseconds (before
        measurement noise).
        """
        if not (0 <= reduction_steps <= self.preset_code):
            raise ConfigurationError(
                f"{self.label}: steps must be in [0, {self.preset_code}], "
                f"got {reduction_steps}"
            )
        return float(self.slack_row(stress)[reduction_steps])

    def slack_row(self, stress: float) -> np.ndarray:
        """:meth:`margin_slack_ps` for every reduction ``0..preset_code``.

        Element ``k`` is ``headroom - (cum[p] - cum[p - k]) - requirement``
        over the inserted-delay prefix sums, evaluated in the same order
        as the scalar ``headroom - reduction_ps(k) - requirement``, so each
        element is bit-identical to it.  Characterization walks read these
        rows millions of times, so each is built once per stress level and
        cached read-only.
        """
        row = self._slack_rows.get(stress)
        if row is None:
            requirement = self.required_protection_ps(stress)
            cum = np.array(self._insert_cumsum_ps[: self.preset_code + 1])
            row = (
                self.protection_headroom_ps - (cum[-1] - cum[::-1]) - requirement
            )
            row.flags.writeable = False
            self._slack_rows[stress] = row
        return row

    def max_safe_reduction(self, stress: float) -> int:
        """Largest noise-free safe reduction under ``stress`` (may be 0)."""
        best = 0
        for steps in range(1, self.preset_code + 1):
            if self.margin_slack_ps(steps, stress) >= 0.0:
                best = steps
            else:
                break
        return best


@dataclass(frozen=True)
class ChipSpec:
    """One POWER7+ processor: eight cores plus shared electricals."""

    chip_id: str
    cores: tuple[CoreSpec, ...]
    pdn_resistance_ohm: float = DEFAULT_PDN_RESISTANCE_OHM
    uncore_power_w: float = DEFAULT_UNCORE_POWER_W
    vrm_voltage: float = NOMINAL_VDD
    inverter_step_ps: float = DEFAULT_INVERTER_STEP_PS
    threshold_units: int = DEFAULT_THRESHOLD_UNITS

    def __post_init__(self) -> None:
        if not self.cores:
            raise ConfigurationError(f"{self.chip_id}: chip must have cores")
        require_positive(self.pdn_resistance_ohm, "pdn_resistance_ohm")
        require_positive(self.vrm_voltage, "vrm_voltage")
        require_positive(self.inverter_step_ps, "inverter_step_ps")
        if self.uncore_power_w < 0.0:
            raise ConfigurationError("uncore_power_w must be >= 0")
        if self.threshold_units < 0:
            raise ConfigurationError("threshold_units must be >= 0")
        labels = [core.label for core in self.cores]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"{self.chip_id}: duplicate core labels")

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    @property
    def slack_ps(self) -> float:
        """Margin the DPLL threshold reserves, in picoseconds."""
        return self.threshold_units * self.inverter_step_ps

    def core(self, label: str) -> CoreSpec:
        """Look a core up by label; raises for unknown labels."""
        for core in self.cores:
            if core.label == label:
                return core
        raise ConfigurationError(f"{self.chip_id}: no core labeled {label!r}")


@dataclass(frozen=True)
class ServerSpec:
    """A multi-socket server: the unit the paper's evaluation runs on."""

    name: str
    chips: tuple[ChipSpec, ...]

    def __post_init__(self) -> None:
        if not self.chips:
            raise ConfigurationError("server must have at least one chip")

    @property
    def all_cores(self) -> tuple[CoreSpec, ...]:
        return tuple(core for chip in self.chips for core in chip.cores)

    def chip_of(self, core_label: str) -> ChipSpec:
        """Return the chip containing ``core_label``."""
        for chip in self.chips:
            if any(core.label == core_label for core in chip.cores):
                return chip
        raise ConfigurationError(f"no chip contains core {core_label!r}")


def core_label(chip_index: int, core_index: int) -> str:
    """Return the paper-style label, e.g. ``core_label(0, 3) == "P0C3"``."""
    if chip_index < 0 or core_index < 0:
        raise ConfigurationError("chip and core indices must be >= 0")
    return f"P{chip_index}C{core_index}"


# ---------------------------------------------------------------------------
# The paper's testbed (inverse-modeled from published data)
# ---------------------------------------------------------------------------

#: Table I, row "idle limit": max safe CPM delay reduction, system idle.
TESTBED_IDLE_LIMITS = (9, 8, 4, 11, 10, 7, 8, 2, 4, 8, 5, 8, 7, 5, 10, 3)

#: Table I, row "uBench limit".
TESTBED_UBENCH_LIMITS = (9, 8, 4, 10, 9, 7, 8, 2, 4, 8, 5, 5, 6, 4, 10, 2)

#: Table I, row "thread normal".
TESTBED_THREAD_NORMAL_LIMITS = (8, 7, 4, 9, 8, 6, 7, 2, 3, 7, 5, 4, 5, 3, 8, 2)

#: Table I, row "thread worst".
TESTBED_THREAD_WORST_LIMITS = (6, 6, 3, 6, 6, 5, 5, 2, 3, 3, 5, 3, 3, 2, 6, 2)

#: Factory preset inserted-delay codes in the Fig. 4b style: wide (~3x)
#: spread, 7..20, larger presets on intrinsically faster cores.
TESTBED_PRESET_CODES = (14, 13, 9, 20, 16, 12, 13, 7, 9, 14, 10, 13, 12, 10, 17, 8)

#: Frequency (MHz) each core reaches at its idle limit, consistent with the
#: values the paper quotes (P0C3 ~5200, P0C4/P1C7 ~5100, P1C2 ~4850, the
#: slowest core ~4700 when idle, most cores above 5000).
TESTBED_IDLE_LIMIT_MHZ = (
    5050.0, 5020.0, 4880.0, 5200.0, 5100.0, 4980.0, 5010.0, 4700.0,
    4900.0, 5000.0, 4850.0, 5060.0, 4950.0, 4870.0, 5120.0, 5100.0,
)

#: Stress-intensity coordinates of the Table I anchor rows (see
#: :mod:`repro.workloads.base` for how workloads are assigned intensities).
STRESS_UBENCH = 0.25
STRESS_THREAD_NORMAL = 0.6
STRESS_THREAD_WORST = 1.0

#: Hand-tuned reduction-step width overrides reproducing the specific
#: non-linearity anecdotes of Sec. IV-C.  Keys are core labels; values map a
#: 1-based *reduction step* to its width in picoseconds.
#:
#: * P1C6: first step jumps >200 MHz, second is negligible (Fig. 5).
#: * P1C3: step 6 is nearly free, step 7 is worth >100 MHz (Fig. 5).
#: * P1C2: the failing 6th step would have been worth ~300 MHz (Fig. 7k).
#: * P1C1: the failing 9th step costs only ~100 MHz (Fig. 7j).
_TESTBED_STEP_OVERRIDES: dict[str, dict[int, float]] = {
    "P1C6": {1: 9.0, 2: 0.3},
    "P1C3": {6: 0.2, 7: 4.8},
    "P1C2": {6: 12.2},
    "P1C1": {9: 4.1},
}

#: Fraction of the first failing step's width by which the idle-limit
#: protection headroom clears the idle-limit reduction.  Must exceed 0.5 so
#: the anchor-midpoint construction keeps all stress requirements positive.
_HEADROOM_FRACTION = 0.6


def idle_operating_point() -> tuple[float, float]:
    """The (vdd, temperature) pair of the assumed idle operating point.

    Both testbed inverse modeling and factory calibration of sampled chips
    anchor their frequency targets here, because the published "idle"
    numbers (4600 MHz default, Fig. 7 limit frequencies) are measured with
    the OS running, not at true nominal conditions.
    """
    idle_vdd = NOMINAL_VDD - DEFAULT_PDN_RESISTANCE_OHM * _IDLE_CHIP_POWER_W / NOMINAL_VDD
    return idle_vdd, _IDLE_TEMPERATURE_C


def _idle_operating_factor() -> float:
    """Delay scale factor at the assumed idle operating point.

    The testbed targets (4600 MHz default, Table I idle-limit frequencies)
    are observed at system idle, where a small IR drop and mild warming
    already apply; inverse modeling must place its anchors at that point,
    not at nominal conditions.
    """
    idle_vdd, idle_temp = idle_operating_point()
    voltage_factor = alpha_power_delay_factor(idle_vdd)
    temp_factor = 1.0 + 2.0e-4 * (idle_temp - AMBIENT_TEMPERATURE_C)
    return voltage_factor * temp_factor


def _testbed_step_widths(
    label: str,
    preset: int,
    idle_limit: int,
    target_reduction_ps: float,
    rng: np.random.Generator,
) -> tuple[float, ...]:
    """Build per-code step widths for one testbed core.

    Draws log-normal reduction-step widths, applies the hand-tuned
    overrides, then scales the non-overridden widths inside the idle-limit
    range so the cumulative reduction at the idle limit equals
    ``target_reduction_ps`` exactly.
    """
    raw = rng.lognormal(mean=np.log(2.2), sigma=0.55, size=preset)
    widths_by_step = {step: float(raw[step - 1]) for step in range(1, preset + 1)}
    overrides = _TESTBED_STEP_OVERRIDES.get(label, {})
    widths_by_step.update(overrides)

    in_range = [s for s in range(1, idle_limit + 1)]
    fixed = sum(widths_by_step[s] for s in in_range if s in overrides)
    free_steps = [s for s in in_range if s not in overrides]
    free_total = sum(widths_by_step[s] for s in free_steps)
    remaining = target_reduction_ps - fixed
    if remaining <= 0.0 or (free_steps and free_total <= 0.0):
        raise ConfigurationError(
            f"{label}: overrides exceed the idle-limit reduction target"
        )
    if free_steps:
        scale = remaining / free_total
        for step in free_steps:
            widths_by_step[step] = max(0.05, widths_by_step[step] * scale)
        # Renormalize exactly after the floor clamp.
        adjusted = sum(widths_by_step[s] for s in free_steps)
        correction = remaining / adjusted
        for step in free_steps:
            widths_by_step[step] *= correction

    # widths_by_step is keyed by reduction step r (1-based, r=1 removes the
    # width of code == preset); convert to code-indexed widths where
    # step_widths[i] is the delay added going from code i to i+1.
    code_widths = [0.0] * preset
    for step, width in widths_by_step.items():
        code_widths[preset - step] = width
    return tuple(code_widths)


def _anchor_requirement(
    headroom: float,
    reduction_at: float,
    reduction_next: float | None,
) -> float:
    """Protection requirement placing a limit exactly at ``reduction_at``.

    Safe iff ``reduction + requirement <= headroom``; the midpoint between
    the last safe and first failing reduction pins the limit to the
    intended step while leaving symmetric noise tolerance.
    """
    if reduction_next is None:
        return max(0.0, headroom - reduction_at - 0.1)
    return headroom - 0.5 * (reduction_at + reduction_next)


def _build_testbed_core(
    chip_index: int,
    core_index: int,
    rng: np.random.Generator,
) -> CoreSpec:
    """Inverse-model one testbed core from the published data tables."""
    flat = chip_index * CORES_PER_CHIP + core_index
    label = core_label(chip_index, core_index)
    preset = TESTBED_PRESET_CODES[flat]
    idle_limit = TESTBED_IDLE_LIMITS[flat]
    ubench_limit = TESTBED_UBENCH_LIMITS[flat]
    normal_limit = TESTBED_THREAD_NORMAL_LIMITS[flat]
    worst_limit = TESTBED_THREAD_WORST_LIMITS[flat]

    operating_factor = _idle_operating_factor()
    base_total_ps = mhz_to_cycle_ps(DEFAULT_ATM_IDLE_MHZ) / operating_factor
    target_cycle_ps = mhz_to_cycle_ps(TESTBED_IDLE_LIMIT_MHZ[flat]) / operating_factor
    target_reduction = base_total_ps - target_cycle_ps
    if target_reduction <= 0.0:
        raise ConfigurationError(f"{label}: idle-limit frequency below default")

    step_widths = _testbed_step_widths(label, preset, idle_limit, target_reduction, rng)

    def reduction(steps: int) -> float:
        total = sum(step_widths[preset - s] for s in range(1, steps + 1))
        return float(total)

    next_width = step_widths[preset - (idle_limit + 1)] if idle_limit < preset else 1.0
    headroom = reduction(idle_limit) + _HEADROOM_FRACTION * next_width

    anchors = []
    for stress, limit in (
        (STRESS_UBENCH, ubench_limit),
        (STRESS_THREAD_NORMAL, normal_limit),
        (STRESS_THREAD_WORST, worst_limit),
    ):
        nxt = reduction(limit + 1) if limit < preset else None
        anchors.append((stress, _anchor_requirement(headroom, reduction(limit), nxt)))
    # Enforce monotone non-decreasing requirements (equal limits on adjacent
    # rows can otherwise produce tiny inversions from midpoint arithmetic).
    monotone: list[tuple[float, float]] = [(0.0, 0.0)]
    floor = 0.0
    for stress, requirement in anchors:
        floor = max(floor, requirement)
        monotone.append((stress, floor))

    insert_at_preset = float(sum(step_widths[:preset]))
    slack_ps = DEFAULT_THRESHOLD_UNITS * DEFAULT_INVERTER_STEP_PS
    synth_base = base_total_ps - insert_at_preset - slack_ps
    if synth_base <= 0.0:
        raise ConfigurationError(f"{label}: inverse modeling produced negative path delay")

    leakage = float(1.2 * rng.uniform(0.88, 1.12))
    ceff = float(2.6 * rng.uniform(0.95, 1.05))
    return CoreSpec(
        label=label,
        synth_path=PathTimingModel(base_delay_ps=synth_base),
        preset_code=preset,
        step_widths_ps=step_widths,
        protection_headroom_ps=headroom,
        stress_curve=tuple(monotone),
        power=CorePowerSpec(leakage_w=leakage, ceff_w_per_ghz=ceff),
    )


def power7plus_testbed(seed: int = 2019) -> ServerSpec:
    """Build the paper's two-socket POWER7+ server.

    The returned server reproduces, by construction, the per-core factory
    presets (Fig. 4b style) and — when characterized with
    :mod:`repro.core.characterize` — the four limit rows of Table I and the
    idle-limit frequencies of Fig. 7.

    ``seed`` only affects the unconstrained details (step-width shapes away
    from the published anchors, per-core power variation); the published
    anchors themselves are deterministic.
    """
    streams = RngStreams(seed)
    chips = []
    for chip_index in range(CHIPS_PER_SERVER):
        rng = streams.stream(f"testbed.chip{chip_index}")
        cores = tuple(
            _build_testbed_core(chip_index, core_index, rng)
            for core_index in range(CORES_PER_CHIP)
        )
        chips.append(ChipSpec(chip_id=f"P{chip_index}", cores=cores))
    return ServerSpec(name="power7plus-testbed", chips=tuple(chips))


# ---------------------------------------------------------------------------
# Randomly manufactured chips
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChipDraw:
    """Raw sampled values of one manufactured chip, before any spec objects.

    :func:`draw_chips` produces these a chunk at a time (:func:`draw_chip`
    is its one-chip call), running the RNG draws and factory-calibration
    arithmetic of :func:`sample_chip` but collecting the per-core results
    into flat tuples instead of constructing :class:`CoreSpec` /
    :class:`ChipSpec` objects.  The fleet (:mod:`repro.core.fleet`) runs
    every chip, cold or store-served, straight from these values:
    :func:`repro.fastpath.compiled.fingerprint_from_draw` and
    :func:`repro.core.char_record.char_key` pack them into the
    ``"solver-v2"`` and ``"char-v2"`` store keys,
    :func:`repro.core.char_record.characterize_chunk` walks a chunk's cold
    chips over slack rows computed from them, and
    :func:`repro.fastpath.compiled.compile_draw` compiles the solver
    tables from them.  :meth:`materialize` rebuilds the exact
    :class:`ChipSpec` (bit-identical fields, same validation) for
    everything else, such as :func:`sample_chip`.
    """

    chip_id: str
    labels: tuple[str, ...]
    synth_base_ps: tuple[float, ...]
    preset_codes: tuple[int, ...]
    step_widths_ps: tuple[tuple[float, ...], ...]
    headroom_ps: tuple[float, ...]
    stress_curves: tuple[tuple[tuple[float, float], ...], ...]
    leakage_w: tuple[float, ...]
    ceff_w_per_ghz: tuple[float, ...]

    @property
    def n_cores(self) -> int:
        return len(self.labels)

    def materialize(self) -> ChipSpec:
        """Build the :class:`ChipSpec` these values describe.

        Every field is passed through unchanged, so the result is
        bit-identical to what :func:`sample_chip` constructs inline for the
        same seed (pinned in ``tests/silicon/test_chipspec.py``).
        """
        cores = tuple(
            CoreSpec(
                label=self.labels[i],
                synth_path=PathTimingModel(base_delay_ps=self.synth_base_ps[i]),
                preset_code=self.preset_codes[i],
                step_widths_ps=self.step_widths_ps[i],
                protection_headroom_ps=self.headroom_ps[i],
                stress_curve=self.stress_curves[i],
                power=CorePowerSpec(
                    leakage_w=self.leakage_w[i],
                    ceff_w_per_ghz=self.ceff_w_per_ghz[i],
                ),
            )
            for i in range(len(self.labels))
        )
        return ChipSpec(chip_id=self.chip_id, cores=cores)


def _draw(
    chips: Sequence[tuple[int, str]],
    n_cores: int,
    variation: ProcessVariationModel | None,
) -> tuple[ChipDraw, ...]:
    """Draw chip ``chip_id`` from the ``sample.<chip_id>`` stream of its
    ``seed``, for every ``(seed, chip_id)`` in ``chips``.

    A chip takes its die, within-die and step-width/mismatch Gaussians
    (``1 + n_cores * (max_delay_code + 2)`` of them) in one block, then
    each core's three stress-curve Gaussians and two power-term uniforms.
    Step widths are exponentiated with ``math.exp``, the libm ``exp``
    that ``Generator.lognormal`` applies (``np.exp`` can differ in the
    last bit).
    """
    if not chips:
        return ()
    # Seeds are checked before the core count, as each chip's RngStreams
    # was built before its cores were sampled.
    generators = seeded_streams(
        [(seed, f"sample.{chip_id}") for seed, chip_id in chips]
    )
    if n_cores < 1:
        raise ConfigurationError(f"n_cores must be >= 1, got {n_cores}")
    model = variation if variation is not None else ProcessVariationModel()
    n_steps = model.max_delay_code
    factor = core_covariance_factor(n_cores, model.correlation_length)
    log_median = float(np.log(model.step_width_median_ps))
    # A core's preset inserted delay fills the gap between its path delay
    # and this uniform-performance target.
    target_ps = (
        mhz_to_cycle_ps(DEFAULT_ATM_IDLE_MHZ) / _idle_operating_factor()
        - DEFAULT_THRESHOLD_UNITS * DEFAULT_INVERTER_STEP_PS
    )
    # Nominal synthetic-path delay of a median core, sized so a median
    # preset (~12 codes at the median step width) hits the default target.
    nominal_synth = target_ps - 12 * model.step_width_median_ps

    draws = []
    for (_seed, chip_id), rng in zip(chips, generators):
        normals = rng.standard_normal(1 + n_cores * (n_steps + 2))
        speeds = np.exp(
            model.die_sigma * normals[0]
            + model.core_sigma * (factor @ normals[1 : n_cores + 1])
        )
        for speed in speeds.tolist():
            require_positive(speed, "speed_factor")
        per_core = normals[n_cores + 1 :].reshape(n_cores, n_steps + 1)
        widths = list(
            map(
                math.exp,
                (log_median + model.step_width_sigma * per_core[:, :n_steps])
                .ravel()
                .tolist(),
            )
        )
        cumulative = np.add.accumulate(
            np.fromiter(widths, float, len(widths)).reshape(n_cores, n_steps), axis=1
        )
        fills = (target_ps - nominal_synth * speeds).tolist()
        mismatches = (
            model.mismatch_mean_ps + model.mismatch_sigma_ps * per_core[:, n_steps]
        ).tolist()

        chip_number = int(chip_id[1:]) if chip_id[1:].isdigit() else 0
        synth_bases = []
        presets = []
        core_widths = []
        headrooms = []
        curves = []
        leakages = []
        ceffs = []
        for core in range(n_cores):
            core_widths.append(tuple(widths[core * n_steps : (core + 1) * n_steps]))
            # Factory preset: the smallest code whose inserted delay fills
            # the gap, while reserving the core's mismatch as protection.
            found = int(cumulative[core].searchsorted(fills[core]))
            preset = max(2, min(found + 1, n_steps))
            # The builtin sum, as calibration has always added the preset's
            # widths (Python 3.12+ compensates its rounding; the running
            # sum in ``cumulative`` does not).
            insert_at_preset = sum(core_widths[-1][:preset])
            # Re-anchor the path delay so the default config sits exactly at
            # the uniform target despite preset quantization (vendors trim
            # this with the CPM's fine calibration bits).
            synth_base = target_ps - insert_at_preset
            if synth_base <= 0.0:
                # Not the core label: it always reads P<n>, and it seeds
                # RNG streams.
                raise ConfigurationError(
                    f"{chip_id} core {core}: sampled chip is non-physical"
                )
            mismatch = max(0.0, mismatches[core])
            # Reclaimable protection is bounded both by the CPM mismatch the
            # preset must keep covering and by how much true guardband the
            # factory actually inserted: even the fastest testbed core
            # exposes only ~25 ps (P0C3, 4.6 -> 5.2 GHz), so cap sampled
            # chips in the same physical regime.
            headroom = min(max(insert_at_preset - mismatch, 0.5), 26.0)
            # Requirements grow with the mismatch: cores whose synthetic
            # paths track their real paths poorly need disproportionately
            # more protection under stressful workloads.
            stress = rng.standard_normal(3).tolist()
            ubench = max(0.3, 0.25 * mismatch + 1.0 + 0.8 * stress[0])
            normal = ubench + max(0.2, 0.35 * mismatch + 1.0 + 0.9 * stress[1])
            worst = normal + max(0.3, 0.55 * mismatch + 1.5 + 1.2 * stress[2])
            power = rng.random(2).tolist()
            synth_bases.append(synth_base)
            presets.append(preset)
            headrooms.append(headroom)
            curves.append(
                (
                    (0.0, 0.0),
                    (STRESS_UBENCH, ubench),
                    (STRESS_THREAD_NORMAL, normal),
                    (STRESS_THREAD_WORST, worst),
                )
            )
            # Generator.uniform(low, high) is low + (high - low) * random().
            leakages.append(1.2 * (0.85 + (1.15 - 0.85) * power[0]))
            ceffs.append(2.6 * (0.93 + (1.07 - 0.93) * power[1]))
        draws.append(
            ChipDraw(
                chip_id=chip_id,
                labels=tuple(core_label(chip_number, core) for core in range(n_cores)),
                synth_base_ps=tuple(synth_bases),
                preset_codes=tuple(presets),
                step_widths_ps=tuple(core_widths),
                headroom_ps=tuple(headrooms),
                stress_curves=tuple(curves),
                leakage_w=tuple(leakages),
                ceff_w_per_ghz=tuple(ceffs),
            )
        )
    return tuple(draws)


def draw_chip(
    seed: int,
    chip_id: str = "P0",
    *,
    n_cores: int = CORES_PER_CHIP,
    variation: ProcessVariationModel | None = None,
) -> ChipDraw:
    """Sample one chip's raw manufacturing draw (see :class:`ChipDraw`).

    The one-chip call of :func:`draw_chips`' implementation: chip
    ``chip_id`` drawn from the ``sample.<chip_id>`` stream of ``seed``.
    ``draw_chip(s).materialize()`` is ``sample_chip(s)``.
    """
    return _draw(((seed, chip_id),), n_cores, variation)[0]


def draw_chips(
    seed: int,
    indices,
    *,
    n_cores: int = CORES_PER_CHIP,
    variation: ProcessVariationModel | None = None,
) -> tuple[ChipDraw, ...]:
    """Draw fleet chips ``F{i}`` for every ``i`` in ``indices``, in one pass.

    Chip ``i`` equals ``draw_chip(seed + i, chip_id=f"F{i}")`` field for
    field.  The chunk's generators are seeded together
    (:func:`repro.rng.seeded_streams`), the core covariance is factored
    once, and no per-chip spec objects are built: the warm store path
    consumes the draws directly.  A non-physical chip raises
    ``ConfigurationError`` naming the first such chip in ``indices``.
    """
    return _draw([(seed + i, f"F{i}") for i in indices], n_cores, variation)


def sample_chip(
    seed: int,
    chip_id: str = "P0",
    *,
    n_cores: int = CORES_PER_CHIP,
    variation: ProcessVariationModel | None = None,
) -> ChipSpec:
    """Manufacture a random chip and factory-calibrate its CPM presets.

    The preset search mirrors what vendors do at test time (Sec. III-A):
    pick each core's inserted-delay code so that the default ATM
    configuration delivers uniform performance near
    :data:`repro.units.DEFAULT_ATM_IDLE_MHZ`, which hands fast cores large
    presets (more hidden margin) and slow cores small ones.

    Implemented as ``draw_chip(...).materialize()`` — the raw draw and the
    spec construction are separable so the fleet can skip the latter
    (see :class:`ChipDraw`).
    """
    return draw_chip(
        seed, chip_id, n_cores=n_cores, variation=variation
    ).materialize()
