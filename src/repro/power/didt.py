"""Stochastic di/dt (voltage-noise) event generation.

di/dt events are abrupt load-current steps — pipeline flushes, bursts after
stalls, synchronized multi-core activity — that excite the PDN resonance
(:class:`repro.power.pdn.DroopResponse`).  Their *rate* and *magnitude*
depend on workload behaviour: smooth uBench loops barely produce any, while
flush-heavy applications like x264 and adversarial stressmarks produce
large, frequent, and (worst of all) chip-synchronized steps.

The generator draws Poisson arrivals with exponentially distributed step
magnitudes, scaled by a workload's ``didt_activity`` observable; the
transient simulator superimposes each event's droop waveform on the DC
voltage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..units import require_positive


@dataclass(frozen=True)
class DidtEvent:
    """One load step: when it starts and how big the current swing is."""

    start_ns: float
    current_step_a: float

    def __post_init__(self) -> None:
        if self.start_ns < 0.0:
            raise ConfigurationError(f"start_ns must be >= 0, got {self.start_ns}")
        if self.current_step_a < 0.0:
            raise ConfigurationError(
                f"current_step_a must be >= 0, got {self.current_step_a}"
            )


class DidtEventGenerator:
    """Poisson generator of di/dt events for one core's workload.

    Parameters
    ----------
    base_rate_per_us:
        Event rate at ``didt_activity == 1.0``.
    mean_step_a:
        Mean current-step magnitude at ``didt_activity == 1.0``.
    """

    def __init__(self, base_rate_per_us: float = 0.5, mean_step_a: float = 6.0):
        require_positive(base_rate_per_us, "base_rate_per_us")
        require_positive(mean_step_a, "mean_step_a")
        self._base_rate_per_us = base_rate_per_us
        self._mean_step_a = mean_step_a

    def events(
        self,
        rng: np.random.Generator,
        duration_ns: float,
        didt_activity: float,
        *,
        synchronized_cores: int = 1,
    ) -> list[DidtEvent]:
        """Draw the events within ``duration_ns`` for one core.

        ``synchronized_cores`` models the stressmark's adversarial trick of
        aligning issue-throttle release across cores: the effective current
        step is multiplied because adjacent cores step together
        (Sec. VII-A).
        """
        require_positive(duration_ns, "duration_ns")
        if didt_activity < 0.0:
            raise ConfigurationError(
                f"didt_activity must be >= 0, got {didt_activity}"
            )
        if synchronized_cores < 1:
            raise ConfigurationError("synchronized_cores must be >= 1")
        if didt_activity == 0.0:
            return []
        rate_per_ns = self._base_rate_per_us * didt_activity / 1000.0
        expected = rate_per_ns * duration_ns
        count = int(rng.poisson(expected))
        starts = np.sort(rng.uniform(0.0, duration_ns, size=count))
        magnitudes = rng.exponential(
            self._mean_step_a * didt_activity * synchronized_cores, size=count
        )
        return [
            DidtEvent(start_ns=float(t), current_step_a=float(a))
            for t, a in zip(starts, magnitudes)
        ]

    def worst_expected_step_a(
        self, didt_activity: float, *, synchronized_cores: int = 1, quantile: float = 0.99
    ) -> float:
        """The ``quantile`` current step the workload is expected to produce.

        Deployment-time protection must cover roughly this step; the
        characterization procedure discovers it empirically, but the
        analytic form is handy for ablations and sanity tests.
        """
        if not (0.0 < quantile < 1.0):
            raise ConfigurationError(f"quantile must be in (0,1), got {quantile}")
        if didt_activity < 0.0:
            raise ConfigurationError(
                f"didt_activity must be >= 0, got {didt_activity}"
            )
        mean = self._mean_step_a * didt_activity * synchronized_cores
        return -mean * float(np.log(1.0 - quantile))
