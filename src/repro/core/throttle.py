"""Background-job throttling under a chip power budget (paper Sec. VII-C).

Because V_dd is shared across a POWER7+ chip, the manager controls the
critical core's frequency *indirectly*: it caps total chip power by
throttling the co-running background jobs.  Three mechanisms are
available, in decreasing order of background performance:

1. let a background core run at its full fine-tuned ATM frequency,
2. cap it at one of the DVFS p-state frequencies (2.1–4.2 GHz),
3. power-gate the core entirely.

:class:`BackgroundThrottler` picks, for a given power budget, the *least*
throttled uniform setting whose predicted total chip power fits — the
paper's "throttle by the minimal amount" balance policy.  Power prediction
for a candidate uses the same steady-state solver the evaluation uses, so
the decision and the outcome cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..atm.chip_sim import ChipSim, CoreAssignment, ChipSteadyState, MarginMode
from ..errors import ConfigurationError, SchedulingError
from ..units import DVFS_MAX_MHZ, DVFS_MIN_MHZ
from ..workloads.base import IDLE
from .scheduler import Placement

#: The platform's discrete DVFS p-state frequencies, MHz, ascending.
PSTATE_LADDER_MHZ: tuple[float, ...] = (
    DVFS_MIN_MHZ,
    2500.0,
    2900.0,
    3300.0,
    3700.0,
    DVFS_MAX_MHZ,
)


@dataclass(frozen=True)
class ThrottleSetting:
    """One uniform background throttle level.

    ``cap_mhz`` of ``None`` means unthrottled fine-tuned ATM; ``gated``
    overrides everything and disables the background cores.
    """

    cap_mhz: float | None
    gated: bool = False

    def __post_init__(self) -> None:
        if self.cap_mhz is not None and not (
            DVFS_MIN_MHZ <= self.cap_mhz <= DVFS_MAX_MHZ
        ):
            raise ConfigurationError(
                f"cap must be a p-state in [{DVFS_MIN_MHZ}, {DVFS_MAX_MHZ}]"
            )

    def describe(self) -> str:
        if self.gated:
            return "power-gated"
        if self.cap_mhz is None:
            return "fine-tuned ATM (uncapped)"
        return f"DVFS cap {self.cap_mhz:.0f} MHz"


#: Candidate settings from least to most throttled.
THROTTLE_LADDER: tuple[ThrottleSetting, ...] = (
    ThrottleSetting(cap_mhz=None),
    *(ThrottleSetting(cap_mhz=f) for f in sorted(PSTATE_LADDER_MHZ, reverse=True)),
    ThrottleSetting(cap_mhz=None, gated=True),
)


def build_assignments(
    sim: ChipSim,
    placement: Placement,
    reductions: tuple[int, ...],
    setting: ThrottleSetting,
) -> tuple[CoreAssignment, ...]:
    """Concrete per-core assignments for a placement + throttle setting.

    Critical cores always run uncapped at their deployed reduction; the
    throttle applies uniformly to background cores; unassigned cores idle
    at their deployed (safe) configuration.
    """
    chip = sim.chip
    if len(reductions) != chip.n_cores:
        raise ConfigurationError(f"reductions must have {chip.n_cores} entries")
    assignments = []
    for index, core in enumerate(chip.cores):
        workload = placement.workload_on(core.label)
        if workload is None:
            assignments.append(
                CoreAssignment(
                    workload=IDLE,
                    mode=MarginMode.ATM,
                    reduction_steps=reductions[index],
                )
            )
        elif core.label in placement.critical:
            assignments.append(
                CoreAssignment(
                    workload=workload,
                    mode=MarginMode.ATM,
                    reduction_steps=reductions[index],
                )
            )
        elif setting.gated:
            assignments.append(CoreAssignment(workload=IDLE, mode=MarginMode.GATED))
        else:
            assignments.append(
                CoreAssignment(
                    workload=workload,
                    mode=MarginMode.ATM,
                    reduction_steps=reductions[index],
                    freq_cap_mhz=setting.cap_mhz,
                )
            )
    return tuple(assignments)


@dataclass(frozen=True)
class ThrottleDecision:
    """Chosen setting plus the steady state it produces."""

    setting: ThrottleSetting
    state: ChipSteadyState

    @property
    def chip_power_w(self) -> float:
        return self.state.chip_power_w


class BackgroundThrottler:
    """Finds the minimal throttle that satisfies a chip power budget."""

    def __init__(self, sim: ChipSim):
        self._sim = sim

    def evaluate(
        self,
        placement: Placement,
        reductions: tuple[int, ...],
        setting: ThrottleSetting,
        *,
        warm_start: ChipSteadyState | None = None,
    ) -> ThrottleDecision:
        """Steady state of one candidate setting.

        ``warm_start`` seeds the fixed-point iteration from a previously
        converged state; the ladder walk passes each decision's state into
        the next, progressively tighter candidate.
        """
        assignments = build_assignments(self._sim, placement, reductions, setting)
        state = self._sim.solve_steady_state(assignments, warm_start=warm_start)
        return ThrottleDecision(setting=setting, state=state)

    def minimal_throttle(
        self,
        placement: Placement,
        reductions: tuple[int, ...],
        power_budget_w: float,
    ) -> ThrottleDecision:
        """Least-throttled setting whose total chip power fits the budget.

        Walks the ladder from unthrottled toward power gating; raises
        :class:`SchedulingError` when even gating every background core
        cannot meet the budget (the critical job itself is too hungry).
        """
        if power_budget_w <= 0.0:
            raise ConfigurationError(
                f"power budget must be positive, got {power_budget_w}"
            )
        last = None
        for setting in THROTTLE_LADDER:
            decision = self.evaluate(
                placement,
                reductions,
                setting,
                warm_start=last.state if last is not None else None,
            )
            last = decision
            if decision.chip_power_w <= power_budget_w:
                return decision
        assert last is not None
        raise SchedulingError(
            f"power budget {power_budget_w:.1f} W infeasible: even "
            f"{last.setting.describe()} draws {last.chip_power_w:.1f} W"
        )
