"""Integrated management of a fine-tuned ATM system (paper Fig. 13-14).

:class:`AtmManager` composes the whole pipeline of the paper's proposal:
governor → predictors → scheduler → throttler → steady-state evaluation.
Its scenario methods reproduce the five settings Fig. 14 compares:

``run_static_margin``
    Every core at the fixed 4.2 GHz static-margin p-state (baseline).
``run_default_atm``
    Factory-default ATM on all cores, no management: all cores boost
    indiscriminately, total power surges, and the critical core's
    frequency erodes through the shared supply.
``run_unmanaged_finetuned``
    Fine-tuned (thread-worst) CPM settings everywhere but no management:
    the critical job may land on a careless core and background jobs run
    at full tilt.
``run_managed_max``
    Critical jobs on the fastest cores; background power minimized at the
    lowest p-state — maximum critical performance.
``run_managed_qos``
    Critical jobs on the fastest cores; background jobs throttled by the
    *minimal* amount that keeps total chip power under the budget implied
    by the critical job's QoS target (the balance policy).

Every scenario returns a :class:`ScenarioResult` carrying the converged
chip state and per-critical-application speedups over the static margin.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..atm.chip_sim import ChipSim, CoreAssignment, ChipSteadyState, MarginMode
from ..errors import ConfigurationError, SchedulingError
from ..obs.runtime import get_obs
from ..silicon.chipspec import ChipSpec
from ..units import DVFS_MIN_MHZ, STATIC_MARGIN_MHZ
from ..workloads.base import IDLE, Workload
from .freq_predictor import CoreFrequencyPredictor, fit_core_frequency_models
from .governor import Governor, GovernorPolicy
from .limits import LimitTable
from .perf_predictor import AppPerformancePredictor, fit_performance_predictor
from .scheduler import CriticalPlacement, Placement, VariationAwareScheduler
from .throttle import (
    BackgroundThrottler,
    ThrottleSetting,
    build_assignments,
)


@dataclass(frozen=True)
class ScenarioResult:
    """Outcome of evaluating one management scenario."""

    scenario: str
    state: ChipSteadyState
    placement: Placement | None
    critical_speedups: dict[str, float]
    background_setting: str

    @property
    def mean_critical_speedup(self) -> float:
        """Average speedup of the critical applications over static margin."""
        if not self.critical_speedups:
            raise ConfigurationError("scenario has no critical applications")
        return sum(self.critical_speedups.values()) / len(self.critical_speedups)


class AtmManager:
    """Management layer for one fine-tuned chip.

    Parameters
    ----------
    sim:
        The chip's steady-state simulator (stands in for the real chip).
    limits:
        Characterized limit table covering the chip's cores.
    policy:
        Governor policy; the paper evaluates DEFAULT (thread-worst).
    """

    def __init__(
        self,
        sim: ChipSim,
        limits: LimitTable,
        *,
        policy: GovernorPolicy = GovernorPolicy.DEFAULT,
        governor: Governor | None = None,
    ):
        self._sim = sim
        self._limits = limits
        self._policy = policy
        self._governor = governor if governor is not None else Governor(limits)
        decision = self._governor.decide(sim.chip, policy)
        self._reductions = decision.reductions
        self._eligible_critical = decision.eligible_critical_cores
        self._freq_predictors: dict[str, CoreFrequencyPredictor] | None = None
        self._perf_predictors: dict[str, AppPerformancePredictor] = {}

    @property
    def chip(self) -> ChipSpec:
        return self._sim.chip

    @property
    def reductions(self) -> tuple[int, ...]:
        """Deployed per-core CPM reductions under the active policy."""
        return self._reductions

    # -- predictors ------------------------------------------------------------

    def frequency_predictors(self) -> dict[str, CoreFrequencyPredictor]:
        """Per-core Eq. 1 models, fitted lazily and cached."""
        if self._freq_predictors is None:
            self._freq_predictors = fit_core_frequency_models(
                self._sim, self._reductions
            )
        return self._freq_predictors

    def performance_predictor(self, workload: Workload) -> AppPerformancePredictor:
        """Per-application speedup model, fitted lazily and cached."""
        if workload.name not in self._perf_predictors:
            self._perf_predictors[workload.name] = fit_performance_predictor(workload)
        return self._perf_predictors[workload.name]

    # -- internals ---------------------------------------------------------------

    def _scheduler(self) -> VariationAwareScheduler:
        return VariationAwareScheduler(self._sim.chip, self.frequency_predictors())

    def _speedups(
        self, placement: Placement, state: ChipSteadyState
    ) -> dict[str, float]:
        """Measured speedups of the placement's critical jobs."""
        label_to_index = {
            core.label: index for index, core in enumerate(self._sim.chip.cores)
        }
        speedups = {}
        for core_label, workload in placement.critical.items():
            freq = state.core_freq_mhz(label_to_index[core_label])
            speedups[workload.name] = workload.speedup_at(freq)
        return speedups

    def _evaluate(
        self,
        scenario: str,
        placement: Placement,
        reductions: tuple[int, ...],
        setting: ThrottleSetting,
    ) -> ScenarioResult:
        obs = get_obs()
        with obs.tracer.span("manager.scenario", scenario=scenario):
            assignments = build_assignments(
                self._sim, placement, reductions, setting
            )
            state = self._sim.solve_steady_state(assignments)
        if obs.enabled:
            obs.metrics.counter("manager.scenarios").inc()
        return ScenarioResult(
            scenario=scenario,
            state=state,
            placement=placement,
            critical_speedups=self._speedups(placement, state),
            background_setting=setting.describe(),
        )

    # -- scenarios ---------------------------------------------------------------

    def run_static_margin(
        self, criticals: list[Workload], backgrounds: list[Workload]
    ) -> ScenarioResult:
        """Baseline: every core pinned to the 4.2 GHz static-margin p-state."""
        placement = self._scheduler().place(criticals, backgrounds)
        assignments = []
        for core in self._sim.chip.cores:
            workload = placement.workload_on(core.label) or IDLE
            assignments.append(
                CoreAssignment(workload=workload, mode=MarginMode.STATIC)
            )
        state = self._sim.solve_steady_state(tuple(assignments))
        return ScenarioResult(
            scenario="static margin",
            state=state,
            placement=placement,
            critical_speedups=self._speedups(placement, state),
            background_setting=f"fixed {STATIC_MARGIN_MHZ:.0f} MHz",
        )

    def run_default_atm(
        self, criticals: list[Workload], backgrounds: list[Workload]
    ) -> ScenarioResult:
        """Unmanaged factory-default ATM: all cores boost, none is chosen."""
        placement = self._scheduler().place(
            criticals, backgrounds, critical_placement=CriticalPlacement.CARELESS
        )
        default_reductions = tuple(0 for _ in self._sim.chip.cores)
        return self._evaluate(
            "default ATM (unmanaged)",
            placement,
            default_reductions,
            ThrottleSetting(cap_mhz=None),
        )

    def run_unmanaged_finetuned(
        self, criticals: list[Workload], backgrounds: list[Workload]
    ) -> ScenarioResult:
        """Fine-tuned CPM settings but careless placement, full co-runners."""
        placement = self._scheduler().place(
            criticals, backgrounds, critical_placement=CriticalPlacement.CARELESS
        )
        return self._evaluate(
            "fine-tuned ATM (unmanaged)",
            placement,
            self._reductions,
            ThrottleSetting(cap_mhz=None),
        )

    def run_managed_max(
        self, criticals: list[Workload], backgrounds: list[Workload]
    ) -> ScenarioResult:
        """Maximize critical performance: fastest cores, minimal co-runner power."""
        placement = self._scheduler().place(
            criticals,
            backgrounds,
            eligible_critical_cores=self._eligible_critical,
        )
        return self._evaluate(
            "fine-tuned ATM (managed, max critical)",
            placement,
            self._reductions,
            ThrottleSetting(cap_mhz=min(DVFS_MIN_MHZ, STATIC_MARGIN_MHZ)),
        )

    def run_managed_max_idle(self) -> ScenarioResult:
        """An unused socket: every core idles at its deployed configuration."""
        placement = Placement(chip_id=self._sim.chip.chip_id, critical={}, background={})
        return self._evaluate(
            "idle socket (deployed config)",
            placement,
            self._reductions,
            ThrottleSetting(cap_mhz=None),
        )

    def run_background_only(self, backgrounds: list[Workload]) -> ScenarioResult:
        """A socket dedicated to background throughput: no throttling needed.

        Used by the server-level ISOLATE strategy, where background jobs
        get their own supply and can run at full fine-tuned speed without
        stealing any critical core's frequency.
        """
        if len(backgrounds) > self._sim.chip.n_cores:
            raise SchedulingError(
                f"{len(backgrounds)} background jobs exceed "
                f"{self._sim.chip.n_cores} cores"
            )
        placement = self._scheduler().place([], backgrounds)
        return self._evaluate(
            "background-only socket",
            placement,
            self._reductions,
            ThrottleSetting(cap_mhz=None),
        )

    def run_managed_qos(
        self,
        criticals: list[Workload],
        backgrounds: list[Workload],
        *,
        target_speedup: float = 1.10,
    ) -> ScenarioResult:
        """Balance policy: meet the QoS target, maximize background speed.

        The power budget is derived exactly as Fig. 13 describes: the
        per-application predictor converts the QoS target to a frequency
        requirement, the critical core's Eq. 1 predictor converts that to
        a total-chip-power budget, and the throttler picks the least
        throttled background setting that fits.
        """
        if target_speedup <= 0.0:
            raise ConfigurationError(
                f"target speedup must be positive, got {target_speedup}"
            )
        placement = self._scheduler().place(
            criticals,
            backgrounds,
            eligible_critical_cores=self._eligible_critical,
        )
        predictors = self.frequency_predictors()
        budget = float("inf")
        for core_label, workload in placement.critical.items():
            perf_model = self.performance_predictor(workload)
            needed_mhz = perf_model.frequency_for_speedup(target_speedup)
            budget = min(
                budget, predictors[core_label].power_budget_w_for_mhz(needed_mhz)
            )
        if budget == float("inf"):
            raise SchedulingError("QoS scenario needs at least one critical job")
        throttler = BackgroundThrottler(self._sim)
        decision = throttler.minimal_throttle(placement, self._reductions, budget)
        return ScenarioResult(
            scenario=f"fine-tuned ATM (managed, QoS {target_speedup:.2f}x)",
            state=decision.state,
            placement=placement,
            critical_speedups=self._speedups(placement, decision.state),
            background_setting=decision.setting.describe(),
        )
