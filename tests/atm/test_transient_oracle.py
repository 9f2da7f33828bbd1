"""The transient kernel against the step-by-step loop, bit for bit.

:func:`repro.atm.transient.run_intervals` serves both simulators; each
run here is checked against :mod:`tests.atm.scalar_transient` on every
result field, on the per-interval trajectory (supply, DPLL frequency,
CPM reading and gate flag), and on the ``GuardbandViolationEvent``\\ s
and ``dpll.violations`` count an observed run emits.  A dark run (no
observability installed) must return the same results.
"""

import numpy as np
import pytest

from repro.atm.multicore_transient import MulticoreTransientSimulator
from repro.atm.transient import TransientSimulator, run_intervals
from repro.dpll.control_loop import LoopConfig
from repro.obs.events import GuardbandViolationEvent
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import Observability, observed
from repro.obs.sinks import RingBufferSink
from repro.power.didt import DidtEventGenerator
from repro.silicon.chipspec import TESTBED_UBENCH_LIMITS
from repro.workloads.base import IDLE
from repro.workloads.spec import X264
from repro.workloads.stressmark import VOLTAGE_VIRUS

from .scalar_transient import stepwise_chip, stepwise_core

GENERATORS = {
    "default": None,
    "noisy": DidtEventGenerator(base_rate_per_us=2.0, mean_step_a=8.0),
    "a5": DidtEventGenerator(base_rate_per_us=0.4, mean_step_a=4.0),
}
WORKLOADS = {"idle": IDLE, "x264": X264, "virus": VOLTAGE_VIRUS}


def _case_id(case) -> str:
    return "-".join(map(str, case))


def _seed(base: int, case) -> int:
    return base + sum(map(ord, _case_id(case)))


def _ubench_reduction(chip, chip_index, core_index):
    """The deepest reduction covered: min(preset, the core's uBench limit)."""
    limit = TESTBED_UBENCH_LIMITS[chip_index * 8 + core_index]
    return min(chip.cores[core_index].preset_code, limit)


def _observed(run):
    obs = Observability(RingBufferSink(capacity=1 << 20), metrics=MetricsRegistry())
    with observed(obs):
        result = run()
    assert obs.sink.total_emitted == len(obs.sink)
    events = [
        (e.seq, e.core_label, e.source, e.margin_units, e.threshold_units,
         e.frequency_mhz)
        for e in obs.sink.events(GuardbandViolationEvent)
    ]
    return result, events, obs.metrics.counter("dpll.violations").value


# chip, core, interval ns, dt ns, workload, reduction, duration ns,
# generator, synchronized cores.  Durations that no interval divides
# leave a ragged final interval.
CORE_CASES = [
    (0, 0, 0.25, 0.25, "x264", "ubench", 400.0, "noisy", 1),
    (0, 0, 1.0, 0.25, "x264", "ubench", 1500.0, "noisy", 1),
    (1, 6, 1.0, 0.25, "idle", "zero", 300.0, "default", 1),
    (0, 3, 4.0, 0.5, "x264", "zero", 500.0, "noisy", 1),
    (0, 1, 1.0, 0.3, "x264", "ubench", 500.0, "noisy", 1),
    (1, 2, 16.0, 0.25, "virus", "ubench", 601.3, "noisy", 8),
    (1, 5, 64.0, 0.25, "x264", "ubench", 1037.3, "noisy", 1),
    (0, 7, 256.0, 0.25, "x264", "ubench", 1000.0, "noisy", 1),
    (1, 0, 256.0, 0.5, "virus", "ubench", 900.0, "noisy", 8),
    (0, 4, 4.0, 0.25, "virus", "zero", 700.0, "default", 8),
]


@pytest.mark.parametrize("case", CORE_CASES, ids=map(_case_id, CORE_CASES))
def test_one_core_matches_the_stepwise_loop(testbed, case):
    chip_index, core_index, interval, dt, workload, reduction, duration, gen, sync = case
    chip = testbed.chips[chip_index]
    core = chip.cores[core_index]
    if reduction == "ubench":
        reduction = _ubench_reduction(chip, chip_index, core_index)
    else:
        reduction = 0
    config = LoopConfig(evaluation_interval_ns=interval)
    kwargs = dict(
        duration_ns=duration,
        dc_chip_power_w=80.0,
        synchronized_cores=sync,
        didt_generator=GENERATORS[gen],
    )
    args = (WORKLOADS[workload], reduction)
    simulator = TransientSimulator(chip, core, config, dt_ns=dt)
    seed = _seed(1000, case)

    oracle, oracle_events, oracle_count = _observed(
        lambda: stepwise_core(
            chip, core, config, dt, *args, np.random.default_rng(seed), **kwargs
        )
    )
    observed_result, events, count = _observed(
        lambda: simulator.run(*args, np.random.default_rng(seed), **kwargs)
    )
    dark = simulator.run(*args, np.random.default_rng(seed), **kwargs)

    gated = oracle.column("gated", 0)
    frequency = oracle.column("frequency_mhz", 0)
    for result in (observed_result, dark):
        assert result.duration_ns == duration
        assert result.events == tuple(oracle.events)
        assert result.violations == oracle.violations[0]
        assert result.gated_intervals == sum(gated)
        assert result.min_voltage_v == oracle.min_voltage_v
        assert result.min_frequency_mhz == min([oracle.start_mhz[0], *frequency])
        assert result.final_frequency_mhz == [oracle.start_mhz[0], *frequency][-1]
        assert result.voltage_v.tolist() == oracle.voltage_v
        assert result.frequency_mhz.tolist() == frequency
        assert result.margin_units.tolist() == oracle.column("margin_units", 0)
        assert result.gated.tolist() == gated
    assert events == oracle_events
    assert count == oracle_count == sum(gated)


# chip, interval ns, workload, reductions, synchronized, duration ns.
CHIP_CASES = [
    (0, 1.0, "virus", "ubench", True, 800.0),
    (0, 1.0, "virus", "ubench", False, 800.0),
    (1, 16.0, "x264", "ubench", True, 700.7),
    (1, 1.0, "idle", "zero", False, 300.0),
    (0, 4.0, "x264", "zero", True, 600.0),
    (1, 0.25, "virus", "ubench", True, 400.0),
]


@pytest.mark.parametrize("case", CHIP_CASES, ids=map(_case_id, CHIP_CASES))
def test_chip_matches_the_stepwise_loop(testbed, case):
    chip_index, interval, workload, reduction, synchronized, duration = case
    chip = testbed.chips[chip_index]
    reductions = [
        0 if reduction == "zero" else _ubench_reduction(chip, chip_index, index)
        for index in range(len(chip.cores))
    ]
    config = LoopConfig(evaluation_interval_ns=interval)
    kwargs = dict(
        duration_ns=duration,
        synchronized=synchronized,
        didt_generator=GENERATORS["a5"],
    )
    simulator = MulticoreTransientSimulator(chip, config)
    seed = _seed(2000, case)

    oracle, oracle_events, oracle_count = _observed(
        lambda: stepwise_chip(
            chip, config, 0.25, WORKLOADS[workload], reductions,
            np.random.default_rng(seed), **kwargs,
        )
    )
    observed_result, events, count = _observed(
        lambda: simulator.run(
            WORKLOADS[workload], reductions, np.random.default_rng(seed), **kwargs
        )
    )
    dark = simulator.run(
        WORKLOADS[workload], reductions, np.random.default_rng(seed), **kwargs
    )

    labels = [core.label for core in chip.cores]
    for result in (observed_result, dark):
        assert result.duration_ns == duration
        assert result.dc_voltage_v == oracle.dc_voltage_v
        assert result.min_voltage_v == oracle.min_voltage_v
        assert result.per_core_violations == dict(zip(labels, oracle.violations))
        assert result.per_core_gated == {
            label: sum(oracle.column("gated", index))
            for index, label in enumerate(labels)
        }
        assert result.total_events == len(oracle.events)
    assert events == oracle_events
    assert count == oracle_count

    # The kernel's trajectory over the oracle's events.
    run = run_intervals(
        chip,
        chip.cores,
        reductions,
        WORKLOADS[workload],
        oracle.events,
        config,
        dt_ns=0.25,
        duration_ns=duration,
        dc_chip_power_w=120.0,
        temperature_c=65.0,
    )
    assert run.dc_voltage_v == oracle.dc_voltage_v
    assert run.voltage_v.tolist() == oracle.voltage_v
    assert list(run.start_mhz) == oracle.start_mhz
    assert run.frequency_mhz.tolist() == oracle.frequency_mhz
    assert run.margin_units.tolist() == oracle.margin_units
    assert run.gated.tolist() == oracle.gated
    assert list(run.violations) == oracle.violations


def test_cases_exercise_gating_and_violations(testbed):
    """The chip cases gate several cores in one interval and violate
    while live, so core order and the gate mask both show in them."""
    chip = testbed.chips[0]
    reductions = [_ubench_reduction(chip, 0, index) for index in range(8)]
    oracle = stepwise_chip(
        chip, LoopConfig(evaluation_interval_ns=1.0), 0.25, VOLTAGE_VIRUS,
        reductions, np.random.default_rng(_seed(2000, CHIP_CASES[0])),
        duration_ns=800.0, synchronized=True, didt_generator=GENERATORS["a5"],
    )
    assert max(sum(row) for row in oracle.gated) > 1
    assert sum(oracle.violations) > 0
