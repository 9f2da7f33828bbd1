"""Transient (nanosecond-scale) simulation: di/dt droops vs the DPLL loop.

The steady-state solver answers *where the loop settles*; this module
answers *whether the loop survives the trip*.  It advances cores in
sub-nanosecond steps while di/dt events perturb their supply:

1. the workload's :class:`~repro.power.didt.DidtEventGenerator` schedules
   current steps; each step excites the PDN's damped-sinusoid droop
   (:class:`~repro.power.pdn.DroopResponse`), and all active droops
   superimpose on the DC operating voltage;
2. every loop evaluation interval, each core's CPM array is read at the
   instantaneous voltage and its :class:`~repro.dpll.DpllControlLoop`
   responds: a reading below threshold *gates the clock* for the following
   interval (the instant, correct-by-construction response) and slews the
   frequency down; readings above threshold slew it back up;
3. every integration step at which a core is *not* gated, its real worst
   path delay (synthetic path plus the workload's protection requirement)
   is compared against its current cycle time; a shortfall while latches
   are live is a timing violation.

:func:`run_intervals` is the one kernel: :class:`TransientSimulator` runs
it for one core, and
:class:`~repro.atm.multicore_transient.MulticoreTransientSimulator` for
all of a chip's cores on their shared rail.

The decisive race is droop speed versus loop latency: a nanosecond-class
loop sees the CPM margin collapse *before* the droop bottoms out and gates
through the first swing, so almost nothing reaches the latches; a loop
evaluated orders of magnitude slower lets entire droop events come and go
between readings, exposing every deep excursion — exactly why workloads
with violent di/dt behaviour (x264, the voltage virus) force conservative
CPM settings (ablation A1 sweeps this race directly).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..dpll.control_loop import DpllControlLoop, LoopConfig
from ..errors import ConfigurationError
from ..power.didt import DidtEvent, DidtEventGenerator
from ..power.pdn import DroopResponse, PowerDeliveryNetwork
from ..silicon.chipspec import ChipSpec, CoreSpec
from ..units import AMBIENT_TEMPERATURE_C, NOMINAL_VDD, require_positive
from ..workloads.base import Workload
from ..workloads.ubench import UBENCH_STRESS
from .core_sim import equilibrium_frequency_mhz


def droop_voltage_array(
    droop: DroopResponse,
    dt_ns: float,
    n_steps: int,
    dc_voltage_v: float,
    events: Sequence[DidtEvent],
) -> np.ndarray:
    """Supply voltage at every integration step, all droops superimposed.

    Each event contributes its whole tail in one vectorized slice add, in
    event order, so every step sums the DC level and its active droops in
    the order a step-by-step simulation would.
    """
    times = np.arange(n_steps) * dt_ns
    voltage = np.full(n_steps, dc_voltage_v)
    for event in events:
        start = int(np.searchsorted(times, event.start_ns, side="left"))
        if start >= n_steps:
            continue
        voltage[start:] += droop.waveform_array_v(
            times[start:] - event.start_ns, event.current_step_a
        )
    return voltage


def checked_loop_config(loop_config: LoopConfig | None, dt_ns: float) -> LoopConfig:
    """The loop tunables a simulator stepping ``dt_ns`` runs with.

    Defaults to :class:`LoopConfig`; a step longer than the evaluation
    interval is rejected when the simulator is built.
    """
    require_positive(dt_ns, "dt_ns")
    config = loop_config if loop_config is not None else LoopConfig()
    if dt_ns > config.evaluation_interval_ns:
        raise ConfigurationError("dt_ns must not exceed the loop evaluation interval")
    return config


def check_reductions(cores: Sequence[CoreSpec], reductions: Sequence[int]) -> None:
    """Reject a reduction outside ``[0, preset]``, before any event is drawn."""
    for core, reduction in zip(cores, reductions):
        if not (0 <= reduction <= core.preset_code):
            raise ConfigurationError(
                f"{core.label}: reduction must be in [0, {core.preset_code}]"
            )


def _delay_scale(core: CoreSpec, voltage: np.ndarray, temperature_c: float) -> np.ndarray:
    """(V, T) delay scale of ``core``'s synthetic path at every step.

    :func:`~repro.silicon.paths.alpha_power_delay_factor` term by term
    over the waveform, times the temperature term.  Raises as that
    function does if any step dips to the core's threshold voltage.
    """
    synth = core.synth_path
    if voltage.size and float(voltage.min()) <= synth.v_threshold:
        raise ConfigurationError(
            f"vdd {float(voltage.min())} V must exceed threshold voltage "
            f"{synth.v_threshold} V"
        )
    nominal = NOMINAL_VDD / (NOMINAL_VDD - synth.v_threshold) ** synth.alpha
    actual = voltage / (voltage - synth.v_threshold) ** synth.alpha
    return (actual / nominal) * (
        1.0
        + synth.temp_coefficient_per_c * (temperature_c - AMBIENT_TEMPERATURE_C)
    )


def _real_worst_coeff_ps(
    core: CoreSpec, reduction_steps: int, workload: Workload
) -> float:
    """Nominal (unscaled) delay of ``core``'s worst real path under ``workload``.

    The real worst path exceeds the CPM's synthetic mimic by the
    protection requirement this workload has on this core, minus the
    protection still provided by the (possibly reduced) inserted delay.
    The requirement splits into a static part (synthetic-vs-real path
    mismatch, present at DC) and a dynamic part (di/dt-driven, which the
    simulation applies through the droop waveforms instead).
    Micro-benchmarks produce essentially no di/dt, so requirements up to
    the uBench stress level are static; everything an application demands
    beyond that is the voltage-noise share (Sec. V-A's reasoning).
    """
    protection_left = core.protection_headroom_ps - core.reduction_ps(reduction_steps)
    static_requirement = core.required_protection_ps(
        min(workload.stress, UBENCH_STRESS)
    )
    code = core.preset_code - reduction_steps
    return (
        core.synth_path.base_delay_ps
        + core.inserted_delay_ps(code)
        - protection_left
        + static_requirement
    )


@dataclass(frozen=True, eq=False)
class IntervalRun:
    """What :func:`run_intervals` computed for one run.

    ``frequency_mhz``, ``margin_units`` and ``gated`` have one row per
    evaluation interval and one column per core: the DPLL frequency after
    the interval's evaluation, the CPM reading it acted on, and whether
    that reading gated the interval.
    """

    dc_voltage_v: float
    #: Supply voltage at every integration step.
    voltage_v: np.ndarray
    #: Each core's DPLL frequency before the first evaluation.
    start_mhz: tuple[float, ...]
    frequency_mhz: np.ndarray
    margin_units: np.ndarray
    gated: np.ndarray
    #: Per core, the live steps at which the real worst path overshot the cycle.
    violations: tuple[int, ...]

    @property
    def min_voltage_v(self) -> float:
        if not self.voltage_v.size:
            return self.dc_voltage_v
        return min(self.dc_voltage_v, float(self.voltage_v.min()))


def run_intervals(
    chip: ChipSpec,
    cores: Sequence[CoreSpec],
    reductions: Sequence[int],
    workload: Workload,
    events: Sequence[DidtEvent],
    loop_config: LoopConfig,
    *,
    dt_ns: float,
    duration_ns: float,
    dc_chip_power_w: float,
    temperature_c: float,
) -> IntervalRun:
    """Run ``cores`` of ``chip`` through ``events`` on one shared rail.

    The rail is input-only, so its whole waveform is built up front, and
    so is each core's (V, T) delay scale (cores with equal synthetic-path
    electricals share one array).  A DPLL only changes frequency when it
    is evaluated, so the sequential part of a run is the evaluations
    alone: one per interval and core, in (interval, core) order, which
    keeps slew trajectories and emitted guardband events those of a
    step-by-step simulation.  A core's cycle time is then constant within
    an interval, so its violations are one count over an (interval, step)
    deficit matrix, with gated intervals at an infinite cycle time so
    they count none.
    """
    dc_voltage = PowerDeliveryNetwork(
        resistance_ohm=chip.pdn_resistance_ohm, vrm_voltage=chip.vrm_voltage
    ).chip_voltage_v(dc_chip_power_w)
    steps_per_eval = max(1, int(round(loop_config.evaluation_interval_ns / dt_ns)))
    n_steps = int(duration_ns / dt_ns)
    n_intervals = -(-n_steps // steps_per_eval)
    voltage = droop_voltage_array(DroopResponse(), dt_ns, n_steps, dc_voltage, events)

    lanes = []  # per core: (loop, occupied ps, CPM step ps) at each evaluation
    real_worst = []  # per core: (interval, step) matrix of real worst-path ps
    scales: dict[tuple, np.ndarray] = {}
    for core, reduction in zip(cores, reductions):
        loop = DpllControlLoop(
            loop_config,
            initial_mhz=equilibrium_frequency_mhz(
                chip, core, reduction, dc_voltage, temperature_c
            ),
        )
        synth = core.synth_path
        key = (synth.v_threshold, synth.alpha, synth.temp_coefficient_per_c)
        if key not in scales:
            scales[key] = _delay_scale(core, voltage, temperature_c)
        scale = scales[key]
        at_eval = scale[::steps_per_eval]
        monitored_ps = synth.base_delay_ps + core.inserted_delay_ps(
            core.preset_code - reduction
        )
        lanes.append(
            (
                loop,
                (monitored_ps * at_eval).tolist(),
                (chip.inverter_step_ps * at_eval).tolist(),
            )
        )
        # A ragged final interval is padded with -inf, which never overshoots.
        padded = np.full(n_intervals * steps_per_eval, -np.inf)
        padded[:n_steps] = _real_worst_coeff_ps(core, reduction, workload) * scale
        real_worst.append(padded.reshape(n_intervals, steps_per_eval))
    start_mhz = tuple(loop.frequency_mhz for loop, _, _ in lanes)

    frequency: list[float] = []
    margins: list[int] = []
    gated: list[bool] = []
    for interval in range(n_intervals):
        for loop, occupied_ps, cpm_step_ps in lanes:
            # The CPM reading: whole inverter steps of slack left in the
            # cycle after the monitored delay.
            margin_ps = 1.0e6 / loop.frequency_mhz - occupied_ps[interval]
            margin = int(margin_ps / cpm_step_ps[interval]) if margin_ps > 0.0 else 0
            result = loop.step(margin)
            frequency.append(result.frequency_mhz)
            margins.append(margin)
            gated.append(result.violation)

    shape = (n_intervals, len(lanes))
    frequency_mhz = np.array(frequency, dtype=float).reshape(shape)
    gated_mask = np.array(gated, dtype=bool).reshape(shape)
    cycles_ps = np.where(gated_mask, np.inf, 1.0e6 / frequency_mhz)
    return IntervalRun(
        dc_voltage_v=dc_voltage,
        voltage_v=voltage,
        start_mhz=start_mhz,
        frequency_mhz=frequency_mhz,
        margin_units=np.array(margins, dtype=np.int64).reshape(shape),
        gated=gated_mask,
        violations=tuple(
            int(np.count_nonzero(matrix - cycles_ps[:, index, None] > 0.0))
            for index, matrix in enumerate(real_worst)
        ),
    )


@dataclass(frozen=True, eq=False)
class TransientResult:
    """Outcome of one transient run, with its trajectory.

    ``frequency_mhz``, ``margin_units`` and ``gated`` have one entry per
    evaluation interval: the DPLL frequency after the evaluation, the CPM
    reading it acted on, and whether that reading gated the interval.
    """

    duration_ns: float
    violations: int
    gated_intervals: int
    min_voltage_v: float
    min_frequency_mhz: float
    final_frequency_mhz: float
    events: tuple[DidtEvent, ...]
    #: Supply voltage at every integration step.
    voltage_v: np.ndarray
    frequency_mhz: np.ndarray
    margin_units: np.ndarray
    gated: np.ndarray

    @property
    def survived(self) -> bool:
        """True when no timing violation occurred."""
        return self.violations == 0


class TransientSimulator:
    """Time-stepped single-core simulation of droops against the loop.

    Parameters
    ----------
    chip / core:
        The silicon under test.
    loop_config:
        DPLL tunables; the evaluation interval and down-slew rate are what
        the A1 ablation varies.
    dt_ns:
        Integration step; must not exceed the loop evaluation interval.
    """

    def __init__(
        self,
        chip: ChipSpec,
        core: CoreSpec,
        loop_config: LoopConfig | None = None,
        dt_ns: float = 0.25,
    ):
        self._loop_config = checked_loop_config(loop_config, dt_ns)
        self._chip = chip
        self._core = core
        self._dt_ns = dt_ns

    def run(
        self,
        workload: Workload,
        reduction_steps: int,
        rng: np.random.Generator,
        *,
        duration_ns: float = 2000.0,
        dc_chip_power_w: float = 60.0,
        temperature_c: float = 55.0,
        synchronized_cores: int = 1,
        didt_generator: DidtEventGenerator | None = None,
    ) -> TransientResult:
        """Simulate ``duration_ns`` of the core running ``workload``.

        ``dc_chip_power_w`` sets the DC operating point (the steady-state
        solver provides realistic values); ``synchronized_cores`` passes
        through to the event generator for stressmark scenarios.
        """
        require_positive(duration_ns, "duration_ns")
        check_reductions([self._core], [reduction_steps])
        generator = (
            didt_generator if didt_generator is not None else DidtEventGenerator()
        )
        events = generator.events(
            rng,
            duration_ns,
            workload.didt_activity,
            synchronized_cores=synchronized_cores,
        )
        run = run_intervals(
            self._chip,
            [self._core],
            [reduction_steps],
            workload,
            events,
            self._loop_config,
            dt_ns=self._dt_ns,
            duration_ns=duration_ns,
            dc_chip_power_w=dc_chip_power_w,
            temperature_c=temperature_c,
        )
        frequency = run.frequency_mhz[:, 0]
        trajectory = [run.start_mhz[0], *frequency.tolist()]
        return TransientResult(
            duration_ns=duration_ns,
            violations=run.violations[0],
            gated_intervals=int(np.count_nonzero(run.gated)),
            min_voltage_v=run.min_voltage_v,
            min_frequency_mhz=min(trajectory),
            final_frequency_mhz=trajectory[-1],
            events=tuple(events),
            voltage_v=run.voltage_v,
            frequency_mhz=frequency,
            margin_units=run.margin_units[:, 0],
            gated=run.gated[:, 0],
        )
