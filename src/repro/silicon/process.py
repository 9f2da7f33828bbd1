"""Within-die and die-to-die process variation.

The paper's whole opportunity comes from the fact that manufacturing makes
some cores inherently faster than others (Sec. IV-B) and makes the CPM
inserted-delay graduation non-linear (Sec. IV-C).  This module holds the
statistics of both effects, a seeded, spatially-correlated model in the
spirit of VARIUS [Sarangi et al. 2008]:

* a **die-to-die** speed component shared by all cores of a chip,
* a **within-die** component correlated between physically adjacent cores
  (cores are laid out on a line, correlation decays with distance),
* per-core **CPM step graduation**: the widths (in picoseconds) of each
  inserted-delay configuration step, drawn log-normally so some steps are
  nearly free while neighbours are worth hundreds of MHz — exactly the
  non-linearity Fig. 5 shows.

:func:`repro.silicon.chipspec.draw_chips` samples the model, a whole
fleet chunk per call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..units import CPM_DELAY_CODE_MAX, require_positive


@dataclass(frozen=True)
class ProcessVariationModel:
    """Statistics of chip-level process variation outcomes.

    Parameters mirror the statistical knobs of the model; defaults are tuned
    so that randomly sampled chips exhibit the same qualitative spread the
    paper's two testbed chips show: ~3x range of factory preset codes,
    200-500 MHz of exposed inter-core speed differential, and occasional
    nearly-zero CPM steps.

    Parameters
    ----------
    die_sigma:
        Standard deviation of the (log-normal) die-to-die speed component.
    core_sigma:
        Standard deviation of the within-die component.
    correlation_length:
        Spatial correlation length of the within-die component, in units of
        core pitch.  Adjacent cores (distance 1) are strongly correlated
        when this is large.
    step_width_median_ps:
        Median CPM step width.  The paper implies one step spans roughly
        20-60 mV of V_dd equivalence; at ~120 ps/V sensitivity that is
        2.5-7 ps, so the default median is 4 ps.
    step_width_sigma:
        Sigma of the log-normal step-width draw.  Large values create the
        Fig. 5 pattern of alternating ~0 MHz and ~200 MHz steps.
    mismatch_mean_ps / mismatch_sigma_ps:
        Distribution of the CPM-vs-real-path mismatch.  The mismatch
        determines how much protection each core fundamentally needs and
        therefore its characterization limits.
    """

    die_sigma: float = 0.015
    core_sigma: float = 0.02
    correlation_length: float = 2.0
    step_width_median_ps: float = 4.0
    step_width_sigma: float = 0.8
    mismatch_mean_ps: float = 6.0
    mismatch_sigma_ps: float = 3.0
    max_delay_code: int = field(default=CPM_DELAY_CODE_MAX)

    def __post_init__(self) -> None:
        require_positive(self.step_width_median_ps, "step_width_median_ps")
        require_positive(self.correlation_length, "correlation_length")
        sigmas = (
            self.die_sigma,
            self.core_sigma,
            self.step_width_sigma,
            self.mismatch_sigma_ps,
        )
        if any(sigma < 0 for sigma in sigmas):
            raise ConfigurationError("sigmas must be non-negative")
        if self.max_delay_code < 1:
            raise ConfigurationError("max_delay_code must be >= 1")


@functools.lru_cache(maxsize=64)
def core_covariance_factor(n_cores: int, correlation_length: float) -> np.ndarray:
    """Lower Cholesky factor of the within-die core covariance.

    Cores are modeled on a 1-D layout; the covariance between cores at
    distance ``d`` is ``exp(-d / correlation_length)``, factored with a
    small jitter for numerical robustness.  Every chip with the same core
    count and correlation length shares the factor, so it is computed
    once and returned read-only.
    """
    positions = np.arange(n_cores, dtype=float)
    distance = np.abs(positions[:, None] - positions[None, :])
    covariance = np.exp(-distance / correlation_length)
    factor = np.linalg.cholesky(covariance + 1e-10 * np.eye(n_cores))
    factor.flags.writeable = False
    return factor
