"""The step-by-step transient loop, kept as the reference for tests.

At every integration step the loop sums the DC level and every droop
already under way, in event order; at every evaluation step it reads
each core's CPM at that voltage and steps the core's DPLL, in core
order; and at every step at which a core is not gated it compares the
core's real worst path against its cycle time.  One core is the
single-core simulation; a chip's cores share one rail.

:func:`repro.atm.transient.run_intervals` builds the rail up front and
counts violations per interval instead.  It must match this loop
exactly: results, the per-interval trajectory, the emitted
``GuardbandViolationEvent``\\ s and the ``dpll.violations`` counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.atm.core_sim import equilibrium_frequency_mhz
from repro.dpll.control_loop import DpllControlLoop
from repro.power.didt import DidtEventGenerator
from repro.power.pdn import DroopResponse, PowerDeliveryNetwork
from repro.silicon.paths import alpha_power_delay_factor
from repro.units import AMBIENT_TEMPERATURE_C
from repro.workloads.ubench import UBENCH_STRESS


def droop_v(droop: DroopResponse, elapsed_ns: float, current_step_a: float) -> float:
    """One droop's deviation ``elapsed_ns`` after its current step.

    NumPy's ``exp`` may differ from :func:`math.exp` in the last bit, so
    the waveform applies the ufuncs the kernel's array waveform applies,
    one value at a time.
    """
    amplitude = droop.mv_per_amp_step * current_step_a / 1000.0
    phase = 2.0 * math.pi * droop.resonance_mhz * elapsed_ns / 1000.0
    envelope = np.exp(-elapsed_ns / droop.damping_tau_ns)
    return float(-amplitude * envelope * np.sin(phase))


def delay_scale(core, vdd: float, temperature_c: float) -> float:
    """(V, T) delay scale of ``core``'s synthetic path at one voltage."""
    synth = core.synth_path
    return alpha_power_delay_factor(
        vdd, v_threshold=synth.v_threshold, alpha=synth.alpha
    ) * (1.0 + synth.temp_coefficient_per_c * (temperature_c - AMBIENT_TEMPERATURE_C))


def cpm_margin_units(chip, core, cycle_ps: float, scale: float, reduction: int) -> int:
    """Worst CPM reading: whole inverter steps left after the monitored delay."""
    code = core.preset_code - reduction
    occupied = (core.synth_path.base_delay_ps + core.inserted_delay_ps(code)) * scale
    margin_ps = cycle_ps - occupied
    if margin_ps <= 0.0:
        return 0
    return int(margin_ps / (chip.inverter_step_ps * scale))


def real_path_deficit_ps(
    core, cycle_ps: float, scale: float, reduction: int, workload
) -> float:
    """How far the worst real path overshoots the cycle (<= 0 is safe).

    The synthetic path, minus the protection the reduced inserted delay
    still gives, plus the workload's static protection requirement (the
    share up to the uBench stress level; the droops carry the rest).
    """
    protection_left = core.protection_headroom_ps - core.reduction_ps(reduction)
    static_requirement = core.required_protection_ps(
        min(workload.stress, UBENCH_STRESS)
    )
    code = core.preset_code - reduction
    real_worst = (
        core.synth_path.base_delay_ps
        + core.inserted_delay_ps(code)
        - protection_left
        + static_requirement
    ) * scale
    return real_worst - cycle_ps


@dataclass
class StepwiseRun:
    """What the loop saw: per-step voltage, per-interval rows per core."""

    events: list
    dc_voltage_v: float
    start_mhz: list[float]
    voltage_v: list[float] = field(default_factory=list)
    frequency_mhz: list[list[float]] = field(default_factory=list)
    margin_units: list[list[int]] = field(default_factory=list)
    gated: list[list[bool]] = field(default_factory=list)
    violations: list[int] = field(default_factory=list)

    @property
    def min_voltage_v(self) -> float:
        return min([self.dc_voltage_v, *self.voltage_v])

    def column(self, name: str, core: int) -> list:
        return [row[core] for row in getattr(self, name)]


def stepwise_run(
    chip,
    cores,
    reductions,
    workload,
    events,
    loop_config,
    *,
    dt_ns: float,
    duration_ns: float,
    dc_chip_power_w: float,
    temperature_c: float,
) -> StepwiseRun:
    """Advance ``cores`` one integration step at a time on one rail."""
    droop = DroopResponse()
    dc_voltage = PowerDeliveryNetwork(
        resistance_ohm=chip.pdn_resistance_ohm, vrm_voltage=chip.vrm_voltage
    ).chip_voltage_v(dc_chip_power_w)
    loops = [
        DpllControlLoop(
            loop_config,
            initial_mhz=equilibrium_frequency_mhz(
                chip, core, reduction, dc_voltage, temperature_c
            ),
        )
        for core, reduction in zip(cores, reductions)
    ]
    run = StepwiseRun(
        events=list(events),
        dc_voltage_v=dc_voltage,
        start_mhz=[loop.frequency_mhz for loop in loops],
        violations=[0] * len(cores),
    )
    steps_per_eval = max(1, int(round(loop_config.evaluation_interval_ns / dt_ns)))
    gated = [False] * len(cores)
    for step_index in range(int(duration_ns / dt_ns)):
        time_ns = step_index * dt_ns
        vdd = dc_voltage
        for event in events:
            if event.start_ns <= time_ns:
                vdd += droop_v(droop, time_ns - event.start_ns, event.current_step_a)
        run.voltage_v.append(vdd)
        scales = [delay_scale(core, vdd, temperature_c) for core in cores]
        if step_index % steps_per_eval == 0:
            margins = []
            for index, (core, loop) in enumerate(zip(cores, loops)):
                margins.append(
                    cpm_margin_units(
                        chip,
                        core,
                        1.0e6 / loop.frequency_mhz,
                        scales[index],
                        reductions[index],
                    )
                )
                # A below-threshold reading gates the clock for the whole
                # following interval: latches hold their state, so no
                # data can be corrupted while the droop passes.
                gated[index] = loop.step(margins[-1]).violation
            run.frequency_mhz.append([loop.frequency_mhz for loop in loops])
            run.margin_units.append(margins)
            run.gated.append(list(gated))
        for index, (core, loop) in enumerate(zip(cores, loops)):
            if gated[index]:
                continue
            deficit = real_path_deficit_ps(
                core,
                1.0e6 / loop.frequency_mhz,
                scales[index],
                reductions[index],
                workload,
            )
            if deficit > 0.0:
                run.violations[index] += 1
    return run


def stepwise_core(
    chip,
    core,
    loop_config,
    dt_ns,
    workload,
    reduction_steps,
    rng,
    *,
    duration_ns=2000.0,
    dc_chip_power_w=60.0,
    temperature_c=55.0,
    synchronized_cores=1,
    didt_generator=None,
) -> StepwiseRun:
    """``TransientSimulator(chip, core, loop_config, dt_ns).run(...)``, stepwise."""
    generator = didt_generator if didt_generator is not None else DidtEventGenerator()
    events = generator.events(
        rng, duration_ns, workload.didt_activity, synchronized_cores=synchronized_cores
    )
    return stepwise_run(
        chip,
        [core],
        [reduction_steps],
        workload,
        events,
        loop_config,
        dt_ns=dt_ns,
        duration_ns=duration_ns,
        dc_chip_power_w=dc_chip_power_w,
        temperature_c=temperature_c,
    )


def stepwise_chip(
    chip,
    loop_config,
    dt_ns,
    workload,
    reductions,
    rng,
    *,
    duration_ns=4000.0,
    dc_chip_power_w=120.0,
    temperature_c=65.0,
    synchronized=False,
    didt_generator=None,
) -> StepwiseRun:
    """``MulticoreTransientSimulator(chip, loop_config, dt_ns).run(...)``, stepwise.

    Every core draws its own event train, or all cores share one master
    train when synchronized; every train lands on the one rail.
    """
    generator = didt_generator if didt_generator is not None else DidtEventGenerator()
    if synchronized:
        master = generator.events(rng, duration_ns, workload.didt_activity)
        trains = [list(master) for _ in chip.cores]
    else:
        trains = [
            generator.events(rng, duration_ns, workload.didt_activity)
            for _ in chip.cores
        ]
    return stepwise_run(
        chip,
        chip.cores,
        reductions,
        workload,
        [event for train in trains for event in train],
        loop_config,
        dt_ns=dt_ns,
        duration_ns=duration_ns,
        dc_chip_power_w=dc_chip_power_w,
        temperature_c=temperature_c,
    )
