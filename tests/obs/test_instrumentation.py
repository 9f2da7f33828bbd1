"""Events and metrics actually flow out of the instrumented subsystems."""

import numpy as np
import pytest

from repro.analysis.fitting import LinearFit
from repro.atm.chip_sim import ChipSim
from repro.atm.core_sim import SafetyProbe
from repro.core.freq_predictor import CoreFrequencyPredictor
from repro.core.runtime_monitor import DriftMonitor
from repro.dpll.control_loop import DpllControlLoop, LoopConfig
from repro.obs.events import (
    CpmStepEvent,
    DriftAlertEvent,
    GuardbandViolationEvent,
)
from repro.obs.runtime import Observability, observed
from repro.obs.sinks import RingBufferSink
from repro.silicon.chipspec import sample_chip
from repro.workloads.base import IDLE


@pytest.fixture()
def obs():
    context = Observability(RingBufferSink())
    with observed(context):
        yield context


@pytest.fixture()
def chip():
    return sample_chip(7, chip_id="P0")


class TestProbeInstrumentation:
    def test_probe_emits_cpm_step_events(self, obs, chip):
        probe = SafetyProbe(np.random.default_rng(0), noise_sigma_ps=0.0)
        core = chip.cores[0]
        result = probe.probe(core, 1, IDLE)
        steps = obs.sink.events(CpmStepEvent)
        assert len(steps) == 1
        assert steps[0].core_label == core.label
        assert steps[0].safe == result.safe
        assert obs.metrics.counter("probe.total").value == 1

    def test_probe_without_context_emits_nothing(self, chip):
        probe = SafetyProbe(np.random.default_rng(0), noise_sigma_ps=0.0)
        # No context installed: the disabled default must swallow the hook.
        result = probe.probe(chip.cores[0], 1, IDLE)
        assert result is not None


class TestDpllInstrumentation:
    def test_violation_emits_event_with_core_label(self, obs):
        loop = DpllControlLoop(
            LoopConfig(threshold_units=2), core_label="P0C3"
        )
        loop.step(0)  # below threshold: violation
        violations = obs.sink.events(GuardbandViolationEvent)
        assert len(violations) == 1
        assert violations[0].source == "dpll"
        assert violations[0].core_label == "P0C3"
        assert obs.metrics.counter("dpll.violations").value == 1

    def test_safe_step_emits_nothing(self, obs):
        DpllControlLoop(LoopConfig(threshold_units=2)).step(5)
        assert obs.sink.total_emitted == 0


class TestChipSimInstrumentation:
    def test_solve_updates_metrics(self, obs, chip):
        sim = ChipSim(chip)
        sim.solve_steady_state(sim.uniform_assignments())
        assert obs.metrics.counter("chip.solves").value == 1
        assert obs.metrics.histogram("chip.solve_iterations").count == 1
        assert obs.metrics.gauge("chip.power_w").last > 0.0


class TestDriftInstrumentation:
    @staticmethod
    def _monitor() -> DriftMonitor:
        fit = LinearFit(
            slope=0.0, intercept=4500.0, r_squared=1.0, rmse=0.0, n_samples=8
        )
        predictor = CoreFrequencyPredictor(
            core_label="P0C0", reduction_steps=2, fit=fit
        )
        return DriftMonitor(
            {"P0C0": predictor}, threshold_mhz=25.0, smoothing=1.0,
            min_samples=2,
        )

    def test_alert_fires_once_on_transition(self, obs):
        monitor = self._monitor()
        for _ in range(4):
            monitor.observe("P0C0", 100.0, 4400.0)  # residual -100 MHz
        alerts = obs.sink.events(DriftAlertEvent)
        assert len(alerts) == 1
        assert alerts[0].core_label == "P0C0"
        assert alerts[0].mean_residual_mhz < -25.0
        assert obs.metrics.counter("drift.alerts").value == 1

    def test_recovery_rearms_the_alert(self, obs):
        monitor = self._monitor()
        for _ in range(2):
            monitor.observe("P0C0", 100.0, 4400.0)  # drifting
        monitor.observe("P0C0", 100.0, 4500.0)  # recovered
        for _ in range(2):
            monitor.observe("P0C0", 100.0, 4400.0)  # drifting again
        assert len(obs.sink.events(DriftAlertEvent)) == 2
