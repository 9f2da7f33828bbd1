"""The per-probe characterization walk, kept as the reference for tests.

Every probe computes its slack with the scalar delay arithmetic, draws
its own noise value, samples a failure mode with the NumPy cdf search,
and writes its ``CpmStepEvent`` and counter increments before the next
probe runs.  :class:`repro.atm.core_sim.SafetyProbe` must match it
exactly: results, probe counts, generator state, event stream and
counters.
"""

from __future__ import annotations

import numpy as np

from repro.atm.failure import FailureMode
from repro.errors import ConfigurationError
from repro.obs.events import CpmStepEvent
from repro.obs.runtime import get_obs

_SAMPLE_ORDER = (
    FailureMode.SYSTEM_CRASH,
    FailureMode.ABNORMAL_EXIT,
    FailureMode.SILENT_DATA_CORRUPTION,
)


def numpy_mode_cdf(deficit_ps: float, severity_scale_ps: float = 2.0) -> np.ndarray:
    """The normalized failure-mode cdf ``rng.choice`` would search."""
    severity = min(1.0, deficit_ps / severity_scale_ps)
    crash = 0.15 + 0.70 * severity
    sdc = 0.35 * (1.0 - severity)
    abnormal = 1.0 - crash - sdc
    weights = np.array([crash, abnormal, sdc])
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def numpy_sample_mode(
    rng: np.random.Generator, deficit_ps: float, severity_scale_ps: float = 2.0
) -> FailureMode:
    """``FailureModel.sample_mode`` as a NumPy normalized-cdf search."""
    cdf = numpy_mode_cdf(deficit_ps, severity_scale_ps)
    return _SAMPLE_ORDER[int(cdf.searchsorted(rng.random(), side="right"))]


def scalar_slack_ps(core, reduction_steps: int, stress: float) -> float:
    """Noise-free slack from the scalar delay arithmetic."""
    return (
        core.protection_headroom_ps
        - core.reduction_ps(reduction_steps)
        - core.required_protection_ps(stress)
    )


class ScalarSafetyProbe:
    """One probe at a time: the reference for ``SafetyProbe``'s walks."""

    def __init__(self, rng, noise_sigma_ps: float):
        self._rng = rng
        self._noise_sigma_ps = noise_sigma_ps
        self.probe_count = 0

    def probe(self, core, reduction_steps: int, workload) -> bool:
        """One workload run; returns whether it completed correctly."""
        self.probe_count += 1
        slack = scalar_slack_ps(core, reduction_steps, workload.stress)
        if self._noise_sigma_ps > 0.0:
            slack += float(self._rng.normal(0.0, self._noise_sigma_ps))
        safe = slack >= 0.0
        if not safe:
            numpy_sample_mode(self._rng, -slack)
        obs = get_obs()
        if obs.enabled:
            obs.emit_new(
                CpmStepEvent,
                core_label=core.label,
                workload=workload.name,
                reduction_steps=reduction_steps,
                safe=safe,
                slack_ps=slack,
            )
            obs.metrics.counter("probe.total").inc()
            obs.metrics.counter("probe.failures").inc(0 if safe else 1)
        return safe

    def _passes(self, core, steps: int, workload, repeats_per_step: int) -> bool:
        return all(
            self.probe(core, steps, workload) for _ in range(repeats_per_step)
        )

    def max_safe_reduction(
        self, core, workload, *, start: int = 0, repeats_per_step: int = 1
    ) -> int:
        _check(core, start, repeats_per_step)
        _register_counters()
        best = start
        for steps in range(start + 1, core.preset_code + 1):
            if not self._passes(core, steps, workload, repeats_per_step):
                break
            best = steps
        return best

    def rollback_to_safe(
        self, core, workload, *, start: int, repeats_per_step: int = 1
    ) -> int:
        _check(core, start, repeats_per_step)
        _register_counters()
        for steps in range(start, -1, -1):
            if self._passes(core, steps, workload, repeats_per_step):
                return steps
        return 0


def _check(core, start: int, repeats_per_step: int) -> None:
    if not (0 <= start <= core.preset_code):
        raise ConfigurationError(f"{core.label}: bad start {start}")
    if repeats_per_step < 1:
        raise ConfigurationError("repeats_per_step must be >= 1")


def _register_counters() -> None:
    """A walk registers both probe counters before its first probe."""
    obs = get_obs()
    if obs.enabled:
        obs.metrics.counter("probe.total")
        obs.metrics.counter("probe.failures")
