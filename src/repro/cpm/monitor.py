"""Complete Critical Path Monitors and per-core CPM arrays.

A :class:`CriticalPathMonitor` chains the three stages; a
:class:`CoreCpmArray` holds the monitors dispersed across one core's
functional units and reports the worst (smallest) count each cycle — the
value the DPLL consumes.

:func:`build_cpm_array` constructs an array that is consistent with a
core's aggregate :class:`~repro.silicon.chipspec.CoreSpec`: the slowest
monitor's synthetic path equals the core's aggregate path model, so the
component-level and steady-state views agree on the worst margin.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from ..rng import RngStreams
from ..silicon.chipspec import ChipSpec, CoreSpec
from ..units import AMBIENT_TEMPERATURE_C, NOMINAL_VDD
from .inserted_delay import InsertedDelayStage
from .inverter_chain import InverterChain
from .synthetic_path import SyntheticPath


class CriticalPathMonitor:
    """One CPM: inserted delay → synthetic path → inverter chain."""

    def __init__(
        self,
        inserted_delay: InsertedDelayStage,
        synthetic_path: SyntheticPath,
        inverter_chain: InverterChain,
    ):
        self._inserted = inserted_delay
        self._path = synthetic_path
        self._chain = inverter_chain

    @property
    def inserted_delay(self) -> InsertedDelayStage:
        return self._inserted

    @property
    def synthetic_path(self) -> SyntheticPath:
        return self._path

    @property
    def inverter_chain(self) -> InverterChain:
        return self._chain

    def occupied_ps(
        self,
        vdd: float = NOMINAL_VDD,
        temperature_c: float = AMBIENT_TEMPERATURE_C,
    ) -> float:
        """Time consumed before the edge reaches the inverter chain."""
        return self._inserted.delay_ps(vdd, temperature_c) + self._path.delay_ps(
            vdd, temperature_c
        )

    def measure(
        self,
        cycle_ps: float,
        vdd: float = NOMINAL_VDD,
        temperature_c: float = AMBIENT_TEMPERATURE_C,
    ) -> int:
        """Return this cycle's inverter-count margin reading."""
        if cycle_ps <= 0.0:
            raise ConfigurationError(f"cycle_ps must be positive, got {cycle_ps}")
        margin = cycle_ps - self.occupied_ps(vdd, temperature_c)
        return self._chain.quantize(margin, vdd, temperature_c)


class CoreCpmArray:
    """The CPMs dispersed across one core; reports the worst reading."""

    def __init__(self, core_label: str, monitors: tuple[CriticalPathMonitor, ...]):
        if not monitors:
            raise ConfigurationError("a core needs at least one CPM")
        self._label = core_label
        self._monitors = monitors

    @property
    def label(self) -> str:
        return self._label

    @property
    def monitors(self) -> tuple[CriticalPathMonitor, ...]:
        return self._monitors

    def set_code(self, code: int) -> None:
        """Program every monitor's inserted delay to the same code.

        The paper reduces all CPMs of a core by the same step count to keep
        the search space tractable (Sec. III-A); this mirrors that choice.
        """
        for monitor in self._monitors:
            monitor.inserted_delay.set_code(code)

    def reduce_all(self, steps: int) -> None:
        """Reduce every monitor's code by ``steps``."""
        for monitor in self._monitors:
            monitor.inserted_delay.reduce(steps)

    def worst_reading(
        self,
        cycle_ps: float,
        vdd: float = NOMINAL_VDD,
        temperature_c: float = AMBIENT_TEMPERATURE_C,
    ) -> int:
        """The minimum margin count across the core's monitors."""
        return min(
            monitor.measure(cycle_ps, vdd, temperature_c)
            for monitor in self._monitors
        )


def build_cpm_array(  # repro-lint: disable=RL012 -- oracle: tests/integration/test_loop_convergence.py
    chip: ChipSpec,
    core: CoreSpec,
    rng: np.random.Generator | None = None,
    n_monitors: int = 4,
) -> CoreCpmArray:
    """Build a component-level CPM array consistent with ``core``.

    The first monitor is the binding one: its synthetic path is the core's
    aggregate path model.  The remaining monitors mimic faster corners of
    the core (shorter synthetic paths), so the worst-of-array reading
    always comes from the aggregate model — keeping the component view and
    the steady-state solver in exact agreement while still exercising the
    worst-of-N reporting logic.
    """
    if n_monitors < 1:
        raise ConfigurationError(f"n_monitors must be >= 1, got {n_monitors}")
    generator = rng if rng is not None else RngStreams(0).stream("cpm.monitor")
    positions = [p for p in SyntheticPath.POSITIONS if p != "llc"]
    monitors = []
    for index in range(n_monitors):
        if index == 0:
            path_model = core.synth_path
        else:
            # Non-binding monitors sit 1-4% faster than the binding corner.
            margin_factor = float(generator.uniform(0.96, 0.99))
            path_model = core.synth_path.scaled(margin_factor)
        monitors.append(
            CriticalPathMonitor(
                inserted_delay=InsertedDelayStage(
                    core.step_widths_ps, code=core.preset_code
                ),
                synthetic_path=SyntheticPath(
                    path_model, position=positions[index % len(positions)]
                ),
                inverter_chain=InverterChain(step_ps=chip.inverter_step_ps),
            )
        )
    return CoreCpmArray(core.label, tuple(monitors))
