"""Chip-level steady-state solver: frequency ⇄ power fixed point.

Every core's ATM equilibrium frequency depends on the chip voltage; the
chip voltage depends (through IR drop) on total chip power; total power
depends on every core's frequency.  :class:`ChipSim` resolves this loop by
fixed-point iteration — the physical coupling behind the paper's central
management problem: *a background job's power steals the critical job's
frequency*.

Each core runs in one of three margin modes:

``STATIC``
    Conventional static timing margin: the core clocks at a fixed
    frequency (4.2 GHz p-state) regardless of conditions — the paper's
    baseline.
``ATM``
    The adaptive loop is active with a configurable CPM delay reduction
    (0 = the factory-default ATM).  An optional frequency cap models DVFS
    throttling imposed by the management layer.
``GATED``
    The core's power domain is collapsed: no clock, no power draw.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..errors import ConfigurationError, SimulationError
from ..obs.events import GuardbandViolationEvent
from ..obs.metrics import identity_tick
from ..obs.runtime import get_obs
from ..power.core_power import chip_power_w
from ..power.pdn import PowerDeliveryNetwork
from ..power.thermal import ThermalModel
from ..silicon.chipspec import ChipSpec
from ..units import STATIC_MARGIN_MHZ
from ..workloads.base import IDLE, Workload
from .core_sim import SafetyProbe, equilibrium_frequency_mhz
from .failure import FailureMode


class MarginMode(Enum):
    """Timing-margin regime of one core."""

    STATIC = "static"
    ATM = "atm"
    GATED = "gated"


@dataclass(frozen=True)
class CoreAssignment:
    """What one core runs and how its margin is managed.

    Parameters
    ----------
    workload:
        The workload on the core (``IDLE`` for an unused, un-gated core).
    mode:
        Margin regime (static / ATM / power-gated).
    reduction_steps:
        CPM inserted-delay reduction below the preset (ATM mode only);
        0 reproduces the factory-default ATM.
    freq_cap_mhz:
        Optional DVFS ceiling imposed by the management layer (ATM mode) or
        an alternative fixed p-state (static mode).
    """

    workload: Workload = IDLE
    mode: MarginMode = MarginMode.ATM
    reduction_steps: int = 0
    freq_cap_mhz: float | None = None

    def __post_init__(self) -> None:
        if self.reduction_steps < 0:
            raise ConfigurationError("reduction_steps must be >= 0")
        if self.freq_cap_mhz is not None and self.freq_cap_mhz <= 0.0:
            raise ConfigurationError("freq_cap_mhz must be positive")
        if self.mode is not MarginMode.ATM and self.reduction_steps != 0:
            raise ConfigurationError(
                f"reduction_steps only applies to ATM mode, not {self.mode}"
            )

    def __hash__(self) -> int:
        # Same value the generated dataclass hash would produce, memoized:
        # assignment tuples are solve-cache keys, so every cache operation
        # re-hashes them, and the nested workload dataclass makes the
        # field-tuple hash expensive enough to show up on fleet solves.
        try:
            return self._hash
        except AttributeError:
            value = hash(
                (self.workload, self.mode, self.reduction_steps, self.freq_cap_mhz)
            )
            object.__setattr__(self, "_hash", value)
            return value


def check_assignment_rows(
    chip_id: str,
    labels: Sequence[str],
    presets: Sequence[int],
    rows: Sequence[Sequence[CoreAssignment]],
) -> None:
    """Reject malformed assignment rows for one chip.

    A row must hold one assignment per core (``len(presets)`` of them),
    and no ATM assignment may reduce its core's inserted delay past the
    core's preset code.  :class:`ChipSim` checks its chip's cores; the
    fleet, which never builds a chip, checks a draw's labels and presets.
    """
    for row in rows:
        if len(row) != len(presets):
            raise ConfigurationError(
                f"{chip_id}: need {len(presets)} assignments, got {len(row)}"
            )
        for label, preset, assignment in zip(labels, presets, row):
            if (
                assignment.mode is MarginMode.ATM
                and assignment.reduction_steps > preset
            ):
                raise ConfigurationError(
                    f"{label}: reduction {assignment.reduction_steps} exceeds "
                    f"preset {preset}"
                )


@dataclass(frozen=True)
class SafetyViolation:
    """One core found unsafe in a steady-state safety check."""

    core_label: str
    workload_name: str
    deficit_ps: float
    mode: FailureMode


@dataclass(frozen=True)
class ChipSteadyState:
    """Converged operating point of one chip."""

    freqs_mhz: tuple[float, ...]
    chip_power_w: float
    vdd: float
    temperature_c: float
    iterations: int
    assignments: tuple[CoreAssignment, ...] = field(repr=False, default=())

    def core_freq_mhz(self, index: int) -> float:
        """Frequency of core ``index`` at this operating point."""
        if not (0 <= index < len(self.freqs_mhz)):
            raise ConfigurationError(
                f"core index must be in [0, {len(self.freqs_mhz)}), got {index}"
            )
        return self.freqs_mhz[index]

    @property
    def slowest_mhz(self) -> float:
        """Frequency of the slowest non-gated core."""
        active = [f for f in self.freqs_mhz if f > 0.0]
        if not active:
            raise ConfigurationError("all cores are gated")
        return min(active)


class ChipSim:
    """Steady-state simulator of one chip.

    Parameters
    ----------
    chip:
        The chip's silicon specification.
    thermal:
        Thermal model (defaults sized for the POWER7+ package).
    """

    #: Convergence tolerance of the fixed-point iteration, in MHz.
    TOLERANCE_MHZ = 1.0e-3

    #: Iteration budget; the loop is a strong contraction (~2 MHz/W against
    #: watt-level power changes per MHz), so convergence takes only a few
    #: rounds — hitting this limit indicates a modeling bug.
    MAX_ITERATIONS = 200

    def __init__(self, chip: ChipSpec, thermal: ThermalModel | None = None):
        self._chip = chip
        self._pdn = PowerDeliveryNetwork(
            resistance_ohm=chip.pdn_resistance_ohm, vrm_voltage=chip.vrm_voltage
        )
        self._thermal = thermal if thermal is not None else ThermalModel()
        self._compiled: "CompiledChip | None" = None
        self._labels = tuple(core.label for core in chip.cores)
        self._presets = tuple(core.preset_code for core in chip.cores)

    @property
    def chip(self) -> ChipSpec:
        return self._chip

    @property
    def pdn(self) -> PowerDeliveryNetwork:
        return self._pdn

    @property
    def thermal(self) -> ThermalModel:
        return self._thermal

    @property
    def compiled(self) -> "CompiledChip":
        """Array tables for the vectorized solver, built on first use
        (:func:`repro.fastpath.compiled.compile_chip`)."""
        if self._compiled is None:
            from ..fastpath.compiled import compile_chip

            self._compiled = compile_chip(self._chip, self._thermal)
        return self._compiled

    def _core_frequency(
        self,
        index: int,
        assignment: CoreAssignment,
        vdd: float,
        temperature_c: float,
    ) -> float:
        if assignment.mode is MarginMode.GATED:
            return 0.0
        if assignment.mode is MarginMode.STATIC:
            return (
                assignment.freq_cap_mhz
                if assignment.freq_cap_mhz is not None
                else STATIC_MARGIN_MHZ
            )
        freq = equilibrium_frequency_mhz(
            self._chip,
            self._chip.cores[index],
            assignment.reduction_steps,
            vdd,
            temperature_c,
        )
        if assignment.freq_cap_mhz is not None:
            freq = min(freq, assignment.freq_cap_mhz)
        return freq

    def solve_steady_state(
        self,
        assignments: tuple[CoreAssignment, ...] | list[CoreAssignment],
        *,
        warm_start: ChipSteadyState | None = None,
    ) -> ChipSteadyState:
        """Find the converged (frequency, power, voltage, temperature) point.

        Uses the vectorized :mod:`repro.fastpath` solver backed by the
        process-wide memo cache; ``warm_start`` seeds the fixed point from a
        previously converged state (monotone sweeps converge in roughly half
        the iterations).  Raises :class:`SimulationError` if the fixed point
        does not converge within the iteration budget.
        """
        return self.solve_many([assignments], warm_start=warm_start)[0]

    def solve_many(
        self,
        assignment_rows: Sequence[tuple[CoreAssignment, ...] | list[CoreAssignment]],
        *,
        warm_start: ChipSteadyState | None = None,
    ) -> list[ChipSteadyState]:
        """Converge K candidate assignment vectors simultaneously.

        Stacks the rows into (K, n_cores) matrices and iterates them as one
        batch with masked per-row convergence; rows already memoized by the
        solve cache are answered without touching the solver.  Results come
        back in input order.  The memo/metrics orchestration
        (:func:`repro.fastpath.population.solve_chips_cached`) is shared
        with the fleet-scale :func:`repro.fastpath.population.solve_population`,
        which batches many chips' rows into one solve.
        """
        from ..fastpath.population import solve_chips_cached

        rows = [tuple(row) for row in assignment_rows]
        check_assignment_rows(self._chip.chip_id, self._labels, self._presets, rows)
        return solve_chips_cached([(self.compiled, rows, warm_start)])[0]

    def solve_steady_state_reference(
        self, assignments: tuple[CoreAssignment, ...] | list[CoreAssignment]
    ) -> ChipSteadyState:
        """Scalar reference implementation of the fixed-point solve.

        Kept verbatim as the ground truth the vectorized kernel
        (:mod:`repro.fastpath.solver`) is property-tested against; no
        production path calls it.
        """
        assignments = tuple(assignments)
        check_assignment_rows(
            self._chip.chip_id, self._labels, self._presets, (assignments,)
        )
        vdd = self._chip.vrm_voltage
        temperature = self._thermal.ambient_c
        freqs = np.array(
            [
                self._core_frequency(i, a, vdd, temperature)
                for i, a in enumerate(assignments)
            ]
        )
        activities = [a.workload.activity for a in assignments]
        gated = [a.mode is MarginMode.GATED for a in assignments]

        for iteration in range(1, self.MAX_ITERATIONS + 1):
            # Gated cores contribute no power but chip_power_w expects a
            # positive frequency; feed a placeholder that the gate flag
            # zeroes out.
            power_freqs = [f if f > 0.0 else STATIC_MARGIN_MHZ for f in freqs]
            power = chip_power_w(
                self._chip, power_freqs, activities, vdd, temperature, gated
            )
            vdd = self._pdn.chip_voltage_v(power)
            temperature = self._thermal.steady_temperature_c(power)
            new_freqs = np.array(
                [
                    self._core_frequency(i, a, vdd, temperature)
                    for i, a in enumerate(assignments)
                ]
            )
            if np.max(np.abs(new_freqs - freqs)) < self.TOLERANCE_MHZ:
                obs = get_obs()
                if obs.enabled:
                    obs.metrics.counter("chip.solves").inc()
                    obs.metrics.histogram("chip.solve_iterations").observe(
                        float(iteration)
                    )
                    # Same hashed-chip-id tick as the fast path, so the
                    # two solvers produce identical gauge states.
                    obs.metrics.gauge("chip.power_w").set(
                        float(power), tick=identity_tick(self._chip.chip_id)
                    )
                return ChipSteadyState(
                    freqs_mhz=tuple(float(f) for f in new_freqs),
                    chip_power_w=float(power),
                    vdd=float(vdd),
                    temperature_c=float(temperature),
                    iterations=iteration,
                    assignments=assignments,
                )
            freqs = new_freqs
        raise SimulationError(
            f"{self._chip.chip_id}: steady-state solve did not converge in "
            f"{self.MAX_ITERATIONS} iterations"
        )

    def check_safety(
        self,
        assignments: tuple[CoreAssignment, ...] | list[CoreAssignment],
        probe: SafetyProbe,
    ) -> list[SafetyViolation]:
        """Probe every ATM core's configuration under its workload.

        Static-margin and gated cores cannot violate timing (the static
        guardband covers worst-case conditions by construction).  Returns
        the violations found; an empty list means the schedule is safe.
        """
        assignments = tuple(assignments)
        check_assignment_rows(
            self._chip.chip_id, self._labels, self._presets, (assignments,)
        )
        violations = []
        obs = get_obs()
        for core, assignment in zip(self._chip.cores, assignments):
            if assignment.mode is not MarginMode.ATM:
                continue
            result = probe.probe(core, assignment.reduction_steps, assignment.workload)
            if not result.safe:
                violations.append(
                    SafetyViolation(
                        core_label=core.label,
                        workload_name=assignment.workload.name,
                        deficit_ps=-result.slack_ps,
                        mode=result.failure_mode,
                    )
                )
                if obs.enabled:
                    obs.emit(
                        GuardbandViolationEvent(
                            seq=0,
                            core_label=core.label,
                            source="steady_state",
                            workload=assignment.workload.name,
                            deficit_ps=-result.slack_ps,
                        )
                    )
        return violations

    # -- convenience builders -------------------------------------------------

    def uniform_assignments(
        self,
        workload: Workload = IDLE,
        mode: MarginMode = MarginMode.ATM,
        reduction_steps: int | None = None,
        reductions: list[int] | tuple[int, ...] | None = None,
    ) -> tuple[CoreAssignment, ...]:
        """Build one assignment per core running the same workload.

        ``reduction_steps`` applies one reduction to every core;
        ``reductions`` supplies a per-core vector (e.g. a limit row of
        Table I).  The two options are mutually exclusive.
        """
        if reduction_steps is not None and reductions is not None:
            raise ConfigurationError(
                "pass either reduction_steps or reductions, not both"
            )
        if reductions is not None:
            if len(reductions) != self._chip.n_cores:
                raise ConfigurationError(
                    f"reductions must have {self._chip.n_cores} entries"
                )
            per_core = list(reductions)
        else:
            per_core = [reduction_steps or 0] * self._chip.n_cores
        if mode is not MarginMode.ATM and any(steps != 0 for steps in per_core):
            raise ConfigurationError(
                f"reduction steps only apply to ATM mode, not {mode}"
            )
        return tuple(
            CoreAssignment(workload=workload, mode=mode, reduction_steps=steps)
            for steps in per_core
        )
