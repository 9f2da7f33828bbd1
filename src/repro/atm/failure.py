"""Timing-violation failure taxonomy and outcome sampling.

When an aggressively fine-tuned configuration violates timing, the paper
observes three manifestations (Sec. III-B): abnormal application
termination (e.g. a segmentation fault), silent data corruption caught by
result-checking tools, and outright system crashes.  Which one occurs
depends on which latch captured a wrong value — effectively random, but
biased by severity: a deep margin deficit corrupts control logic broadly
(crash), a marginal one flips rare data bits (SDC).

:class:`FailureModel` samples an outcome given the margin deficit, and can
convert it to the corresponding exception from :mod:`repro.errors`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..errors import (
    ApplicationError,
    ConfigurationError,
    SilentDataCorruption,
    SystemCrash,
    TimingViolation,
)


class FailureMode(Enum):
    """How a timing violation manifests."""

    SYSTEM_CRASH = "system_crash"
    ABNORMAL_EXIT = "abnormal_exit"
    SILENT_DATA_CORRUPTION = "silent_data_corruption"


_EXCEPTIONS: dict[FailureMode, type[TimingViolation]] = {
    FailureMode.SYSTEM_CRASH: SystemCrash,
    FailureMode.ABNORMAL_EXIT: ApplicationError,
    FailureMode.SILENT_DATA_CORRUPTION: SilentDataCorruption,
}

@dataclass(frozen=True)
class FailureModel:
    """Severity-biased sampler of failure manifestations.

    ``severity_scale_ps`` sets how quickly deeper deficits shift outcomes
    from SDC toward crashes: at zero deficit the mix is mostly SDC and
    abnormal exits; a deficit of one scale unit makes crashes dominant.
    """

    severity_scale_ps: float = 2.0

    def __post_init__(self) -> None:
        if self.severity_scale_ps <= 0.0:
            raise ConfigurationError("severity_scale_ps must be positive")

    def mode_probabilities(self, deficit_ps: float) -> dict[FailureMode, float]:
        """Outcome distribution for a violation of ``deficit_ps`` depth."""
        if deficit_ps < 0.0:
            raise ConfigurationError(
                f"deficit must be >= 0 for a failure, got {deficit_ps}"
            )
        severity = min(1.0, deficit_ps / self.severity_scale_ps)
        crash = 0.15 + 0.70 * severity
        sdc = 0.35 * (1.0 - severity)
        abnormal = 1.0 - crash - sdc
        return {
            FailureMode.SYSTEM_CRASH: crash,
            FailureMode.ABNORMAL_EXIT: abnormal,
            FailureMode.SILENT_DATA_CORRUPTION: sdc,
        }

    def sample_mode(
        self, rng: np.random.Generator, deficit_ps: float
    ) -> FailureMode:
        """Draw a failure manifestation for the given deficit."""
        if deficit_ps < 0.0:
            raise ConfigurationError(
                f"deficit must be >= 0 for a failure, got {deficit_ps}"
            )
        # Inline of :meth:`mode_probabilities` without the dict round trip;
        # the weights (and therefore the draw) are unchanged, and this is
        # hot: characterization walks sample every failing probe.
        severity = min(1.0, deficit_ps / self.severity_scale_ps)
        crash = 0.15 + 0.70 * severity
        sdc = 0.35 * (1.0 - severity)
        abnormal = 1.0 - crash - sdc
        # ``rng.choice(3, p=[crash, abnormal, sdc])`` in scalar floats:
        # the normalized cdf it searches is built with the same operations
        # in the same order (NumPy sums three weights left to right), a
        # draw on a boundary goes to the later mode as its
        # ``searchsorted(side="right")`` does, and it consumes the same
        # single uniform draw, so the sampled mode and the generator state
        # after the call are bit-identical.
        total = crash + abnormal + sdc
        p_crash = crash / total
        cdf_abnormal = p_crash + abnormal / total
        cdf_end = cdf_abnormal + sdc / total
        draw = rng.random()
        if draw < p_crash / cdf_end:
            return FailureMode.SYSTEM_CRASH
        if draw < cdf_abnormal / cdf_end:
            return FailureMode.ABNORMAL_EXIT
        return FailureMode.SILENT_DATA_CORRUPTION

    def to_exception(
        self, mode: FailureMode, core_id: str, deficit_ps: float
    ) -> TimingViolation:
        """Build the exception corresponding to ``mode``."""
        exc_type = _EXCEPTIONS[mode]
        return exc_type(
            f"{core_id}: timing violation ({mode.value}, deficit {deficit_ps:.2f} ps)",
            core_id=core_id,
            deficit_ps=deficit_ps,
        )
