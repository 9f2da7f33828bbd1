"""Chip-level transient simulation: many cores, one supply.

The single-core transient simulator treats di/dt events as local; on a
real chip every core's current steps land on the *same* delivery network,
and the adversarial trick of the paper's voltage virus (Sec. VII-A) is to
release all cores' issue throttles in the same cycle so their steps add
coherently.  This simulator draws each core's event train, optionally
aligns the trains, superimposes every droop on the shared voltage, and
asks how deep the combined excursions get and which cores violate.

The headline question it answers (ablation A5): how much worse is a
*synchronized* multi-core noise burst than the same activity spread out —
i.e. why a per-core stressmark battery is not enough and the virus must
throttle cores in lockstep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dpll.control_loop import LoopConfig
from ..errors import ConfigurationError
from ..power.didt import DidtEventGenerator
from ..silicon.chipspec import ChipSpec
from ..units import require_positive
from ..workloads.base import Workload
from .transient import check_reductions, checked_loop_config, run_intervals


@dataclass(frozen=True)
class MulticoreTransientResult:
    """Outcome of one chip-level transient run."""

    duration_ns: float
    dc_voltage_v: float
    min_voltage_v: float
    per_core_violations: dict[str, int]
    per_core_gated: dict[str, int]
    total_events: int

    @property
    def total_violations(self) -> int:
        return sum(self.per_core_violations.values())

    @property
    def worst_droop_v(self) -> float:
        """Depth of the deepest excursion below the DC level (positive)."""
        return self.dc_voltage_v - self.min_voltage_v


class MulticoreTransientSimulator:
    """Shared-supply transient simulation across a chip's cores.

    ``loop_config`` and ``dt_ns`` are checked as
    :class:`~repro.atm.transient.TransientSimulator` checks them.
    """

    def __init__(
        self,
        chip: ChipSpec,
        loop_config: LoopConfig | None = None,
        dt_ns: float = 0.25,
    ):
        self._loop_config = checked_loop_config(loop_config, dt_ns)
        self._chip = chip
        self._dt_ns = dt_ns

    def run(
        self,
        workload: Workload,
        reductions: list[int] | tuple[int, ...],
        rng: np.random.Generator,
        *,
        duration_ns: float = 4000.0,
        dc_chip_power_w: float = 120.0,
        temperature_c: float = 65.0,
        synchronized: bool = False,
        didt_generator: DidtEventGenerator | None = None,
    ) -> MulticoreTransientResult:
        """Simulate the whole chip under ``workload`` on every core."""
        require_positive(duration_ns, "duration_ns")
        cores = self._chip.cores
        if len(reductions) != len(cores):
            raise ConfigurationError(f"reductions must have {len(cores)} entries")
        check_reductions(cores, reductions)
        generator = (
            didt_generator if didt_generator is not None else DidtEventGenerator()
        )
        # One event train per core, or, when synchronized, one master train
        # every core steps with.  Every train lands on the shared rail.
        if synchronized:
            master = generator.events(rng, duration_ns, workload.didt_activity)
            trains = [master] * len(cores)
        else:
            trains = [
                generator.events(rng, duration_ns, workload.didt_activity)
                for _ in cores
            ]
        all_events = [event for train in trains for event in train]
        run = run_intervals(
            self._chip,
            cores,
            reductions,
            workload,
            all_events,
            self._loop_config,
            dt_ns=self._dt_ns,
            duration_ns=duration_ns,
            dc_chip_power_w=dc_chip_power_w,
            temperature_c=temperature_c,
        )
        labels = [core.label for core in cores]
        return MulticoreTransientResult(
            duration_ns=duration_ns,
            dc_voltage_v=run.dc_voltage_v,
            min_voltage_v=run.min_voltage_v,
            per_core_violations=dict(zip(labels, run.violations)),
            per_core_gated=dict(
                zip(labels, np.count_nonzero(run.gated, axis=0).tolist())
            ),
            total_events=len(all_events),
        )
