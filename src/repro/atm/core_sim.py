"""Single-core ATM behaviour: equilibrium frequency and safety probing.

Equilibrium
-----------
With the CPM programmed ``reduction_steps`` below the factory preset, the
DPLL settles where the measured margin equals its threshold.  Everything
the CPM is built from (inserted delay, synthetic path, threshold slack) is
silicon and scales together with voltage and temperature, so the
equilibrium cycle time is

``T_eq = (D_synth + D_insert(code) + slack) · g(V) · h(T)``

and the core frequency follows as its reciprocal.  The voltage factor is
how total chip power (through IR drop) reaches every core's frequency —
Eq. 1 of the paper emerges from this composition.

Safety
------
Whether a configuration is *safe* under a workload compares two nominal
delays: the protection remaining after the reduction versus the workload's
requirement on this core (:meth:`CoreSpec.margin_slack_ps`).  Both sides
scale with (V, T) the same way, so the comparison is operating-point
invariant — matching the paper's observation that each limit is stable
when measured under its own workload's load.  :class:`SafetyProbe` adds
the run-to-run measurement noise that gives the paper's (tight) limit
distributions, and samples a failure manifestation when a probe fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..obs.events import CpmStepEvent
from ..obs.runtime import get_obs
from ..silicon.chipspec import ChipSpec, CoreSpec
from ..silicon.paths import alpha_power_delay_factor
from ..units import AMBIENT_TEMPERATURE_C, NOMINAL_VDD
from ..workloads.base import Workload
from .failure import FailureMode, FailureModel


def equilibrium_frequency_mhz(
    chip: ChipSpec,
    core: CoreSpec,
    reduction_steps: int,
    vdd: float = NOMINAL_VDD,
    temperature_c: float = AMBIENT_TEMPERATURE_C,
) -> float:
    """ATM equilibrium frequency of ``core`` at the given operating point."""
    code = core.preset_code - reduction_steps
    if code < 0:
        raise ConfigurationError(
            f"{core.label}: reduction {reduction_steps} exceeds preset "
            f"{core.preset_code}"
        )
    nominal_total = (
        core.synth_path.base_delay_ps + core.inserted_delay_ps(code) + chip.slack_ps
    )
    scale = alpha_power_delay_factor(
        vdd, v_threshold=core.synth_path.v_threshold, alpha=core.synth_path.alpha
    ) * (
        1.0
        + core.synth_path.temp_coefficient_per_c
        * (temperature_c - AMBIENT_TEMPERATURE_C)
    )
    cycle_ps = nominal_total * scale
    return 1.0e6 / cycle_ps


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of one safety probe of a (core, config, workload) triple."""

    safe: bool
    slack_ps: float
    failure_mode: FailureMode | None = None

    def __post_init__(self) -> None:
        if self.safe and self.failure_mode is not None:
            raise ConfigurationError("a safe probe cannot carry a failure mode")
        if not self.safe and self.failure_mode is None:
            raise ConfigurationError("a failing probe must carry a failure mode")


class SafetyProbe:
    """Stochastic safety evaluation of ATM configurations.

    Parameters
    ----------
    rng:
        Randomness source for measurement noise and failure-mode draws.
    noise_sigma_ps:
        Run-to-run variation of the effective margin (thermal noise,
        jitter, OS background activity).  The paper's repeated experiments
        produce limit distributions spanning at most ~2 configuration
        steps, which corresponds to a fraction of a typical step width.

    Failing probes draw how the violation manifests from the default
    :class:`~repro.atm.failure.FailureModel`.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        noise_sigma_ps: float = 0.25,
    ):
        check_noise_sigma(noise_sigma_ps)
        self._rng = rng
        self._noise_sigma_ps = noise_sigma_ps
        self._failure_model = FailureModel()
        self._probe_count = 0

    @property
    def noise_sigma_ps(self) -> float:
        return self._noise_sigma_ps

    @property
    def probe_count(self) -> int:
        """Total workload runs this probe has performed.

        Each probe corresponds to one full benchmark execution on real
        hardware, so the count is the raw currency of test-time cost
        (:mod:`repro.core.cost_model`).
        """
        return self._probe_count

    def probe(
        self, core: CoreSpec, reduction_steps: int, workload: Workload
    ) -> ProbeResult:
        """Run the workload once at the given configuration.

        Returns whether the run completed correctly; on failure, the result
        carries the sampled manifestation (crash / abnormal exit / SDC).
        """
        self._probe_count += 1
        slack = core.margin_slack_ps(reduction_steps, workload.stress)
        if self._noise_sigma_ps > 0.0:
            slack += float(self._rng.normal(0.0, self._noise_sigma_ps))
        if slack >= 0.0:
            result = ProbeResult(safe=True, slack_ps=slack)
        else:
            mode = self._failure_model.sample_mode(self._rng, -slack)
            result = ProbeResult(safe=False, slack_ps=slack, failure_mode=mode)
        obs = get_obs()
        if obs.events_enabled:
            _emit_probes(obs, core, workload, [reduction_steps], [slack])
        _count_probes(obs, 1, 0 if result.safe else 1)
        return result

    def max_safe_reduction(
        self,
        core: CoreSpec,
        workload: Workload,
        *,
        start: int = 0,
        repeats_per_step: int = 1,
    ) -> int:
        """One trial of the paper's limit search: walk up until failure.

        Starting from ``start`` steps of reduction, increase the reduction
        one step at a time, running the workload ``repeats_per_step`` times
        at each point; the trial's answer is the last configuration at
        which every repeat completed correctly.  (``start`` itself is
        assumed to have been validated by the previous, less aggressive
        characterization stage.)

        The walk is one array pass: it draws the noise of every probe the
        trial could run in one call, finds the first failing probe, then
        rewinds the generator and redraws just the probes the step-by-step
        walk would have run, so results, telemetry and the generator's
        final state are exactly those of probing one run at a time.
        """
        _check_walk(core, start, repeats_per_step)
        obs = get_obs()
        top = core.preset_code
        if start == top:
            _count_probes(obs, 0, 0)
            return start
        rng = self._rng
        sigma = self._noise_sigma_ps
        # Probe j runs at reduction start + 1 + j // repeats_per_step.
        shape = (top - start, repeats_per_step)
        row = core.slack_row(workload.stress)[start + 1 :, None]
        if sigma > 0.0:
            saved = rng.bit_generator.state
            slack = (row + rng.normal(0.0, sigma, size=shape)).ravel()
        else:
            slack = np.broadcast_to(row, shape).ravel()
        safe = slack >= 0.0
        first_bad = int(safe.argmin())
        if safe[first_bad]:
            probes, failures, best = slack.size, 0, top
        else:
            probes, failures = first_bad + 1, 1
            best = start + first_bad // repeats_per_step
            if sigma > 0.0 and probes < slack.size:
                rng.bit_generator.state = saved
                rng.normal(0.0, sigma, size=probes)
            self._failure_model.sample_mode(rng, -float(slack[first_bad]))
        self._probe_count += probes
        if obs.events_enabled:
            steps = [
                s for s in range(start + 1, best + 2) for _ in range(repeats_per_step)
            ]
            _emit_probes(
                obs, core, workload, steps[:probes], slack[:probes].tolist()
            )
        _count_probes(obs, probes, failures)
        return best

    def rollback_to_safe(
        self,
        core: CoreSpec,
        workload: Workload,
        *,
        start: int,
        repeats_per_step: int = 1,
    ) -> int:
        """One trial of the roll-back search used beyond the idle stage.

        From ``start`` steps of reduction, *decrease* aggressiveness until
        the workload passes ``repeats_per_step`` consecutive runs; returns
        the resulting reduction (possibly 0 — fully back at the preset).
        """
        _check_walk(core, start, repeats_per_step)
        row = core.slack_row(workload.stress).tolist()
        rng = self._rng
        sigma = self._noise_sigma_ps
        sample_mode = self._failure_model.sample_mode
        steps_run: list[int] = []
        slacks: list[float] = []
        failures = 0
        safe_at = 0
        for steps in range(start, -1, -1):
            for _ in range(repeats_per_step):
                slack = row[steps]
                if sigma > 0.0:
                    slack += rng.normal(0.0, sigma)
                steps_run.append(steps)
                slacks.append(slack)
                if not slack >= 0.0:
                    sample_mode(rng, -slack)
                    failures += 1
                    break
            else:
                safe_at = steps
                break
        self._probe_count += len(slacks)
        obs = get_obs()
        if obs.events_enabled:
            _emit_probes(obs, core, workload, steps_run, slacks)
        _count_probes(obs, len(slacks), failures)
        return safe_at


def check_noise_sigma(noise_sigma_ps: float) -> None:
    """Reject a measurement-noise level that is negative, NaN or infinite.

    The walks add noise only when ``sigma > 0.0``, so NaN would silently
    run noise-free, and an infinite sigma draws +/-inf slack.
    """
    if not (math.isfinite(noise_sigma_ps) and noise_sigma_ps >= 0.0):
        raise ConfigurationError(
            f"noise_sigma_ps must be finite and >= 0, got {noise_sigma_ps}"
        )


def _emit_probes(obs, core: CoreSpec, workload: Workload, steps, slacks) -> None:
    """One ``CpmStepEvent`` per probe, in probe order: ``steps[i]``
    measured ``slacks[i]``."""
    for reduction, slack in zip(steps, slacks):
        obs.emit_new(
            CpmStepEvent,
            core_label=core.label,
            workload=workload.name,
            reduction_steps=reduction,
            safe=slack >= 0.0,
            slack_ps=slack,
        )


def _count_probes(obs, probes: int, failures: int) -> None:
    """Add one walk's probes to ``probe.total`` / ``probe.failures``.

    One increment per walk leaves the registry exactly as one per probe
    would (counters are plain sums).  Both counters are registered even
    for an empty walk, as a per-probe walk registers them up front.
    """
    if obs.enabled:
        metrics = obs.metrics
        metrics.counter("probe.total").inc(probes)
        metrics.counter("probe.failures").inc(failures)


def _check_walk(core: CoreSpec, start: int, repeats_per_step: int) -> None:
    """Validate the arguments shared by the two characterization walks."""
    if not (0 <= start <= core.preset_code):
        raise ConfigurationError(
            f"{core.label}: start must be in [0, {core.preset_code}]"
        )
    if repeats_per_step < 1:
        raise ConfigurationError("repeats_per_step must be >= 1")
