"""Fleet health: outlier-chip triage over characterization limits.

The paper's Fig. 7 shows per-core idle/uBench limit distributions on a
two-chip testbed; at fleet scale the same distributions become a triage
surface: a chip whose cores sit far below the fleet's uBench limits (or
roll back far more often) is the one a vendor pulls for re-screening.

It runs a characterization (:func:`~repro.core.fleet.collect_chip_stats`),
so it lives beside the fleet driver; its fences are the shared
:func:`~repro.obs.stream.gates.quantile_fence` that ``quantile_fence``
alert rules draw, over the fleet-wide *per-core* distributions:

* ``low_idle_limit`` / ``low_ubench_limit`` — the chip's mean limit falls
  below ``p50 − k·max(p50 − p10, 1)`` steps;
* ``high_rollback_rate`` — the chip's rollback rate exceeds
  ``p50 + k·max(p90 − p50, 1/n_cores)`` over the per-chip rates.

The ``max(…, unit)`` spread floor keeps a perfectly tight fleet (zero
spread) from flagging every chip over ties.  Everything is a pure
function of the seed: same seed ⇒ byte-identical report.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

from ..analysis.rendering import ascii_table
from ..errors import ConfigurationError
from ..obs.stream.gates import DEFAULT_FENCE_K, check_fence_k, quantile_fence
from ..silicon.chipspec import CORES_PER_CHIP
from .fleet import ChipStats, collect_chip_stats


@dataclass(frozen=True)
class ChipHealth:
    """One chip's digest row plus the fences it trips."""

    chip_id: str
    mean_idle_steps: float
    mean_ubench_steps: float
    min_ubench_steps: int
    max_rollback_steps: int
    rollback_rate: float
    flags: tuple[str, ...]

    @property
    def healthy(self) -> bool:
        return not self.flags

    def to_dict(self) -> dict:
        return {
            "chip_id": self.chip_id,
            "mean_idle_steps": round(self.mean_idle_steps, 6),
            "mean_ubench_steps": round(self.mean_ubench_steps, 6),
            "min_ubench_steps": self.min_ubench_steps,
            "max_rollback_steps": self.max_rollback_steps,
            "rollback_rate": round(self.rollback_rate, 6),
            "flags": list(self.flags),
        }


@dataclass(frozen=True)
class FleetHealthReport:
    """Outlier triage over one characterized fleet."""

    n_chips: int
    n_cores: int
    seed: int
    trials: int
    fence_k: float
    #: Fleet-wide per-core histograms (summed over chips).
    idle_limit_counts: dict[int, int]
    ubench_limit_counts: dict[int, int]
    rollback_counts: dict[int, int]
    #: Fence values actually applied (derived, recorded for the report).
    idle_fence_steps: float
    ubench_fence_steps: float
    rollback_rate_fence: float
    chips: tuple[ChipHealth, ...]

    @property
    def outliers(self) -> tuple[str, ...]:
        return tuple(chip.chip_id for chip in self.chips if chip.flags)

    def to_dict(self) -> dict:
        return {
            "kind": "fleet_health",
            "schema": 1,
            "n_chips": self.n_chips,
            "n_cores": self.n_cores,
            "seed": self.seed,
            "trials": self.trials,
            "fence_k": round(self.fence_k, 6),
            "idle_limit_counts": {
                str(k): v for k, v in sorted(self.idle_limit_counts.items())
            },
            "ubench_limit_counts": {
                str(k): v for k, v in sorted(self.ubench_limit_counts.items())
            },
            "rollback_counts": {
                str(k): v for k, v in sorted(self.rollback_counts.items())
            },
            "fences": {
                "idle_steps": round(self.idle_fence_steps, 6),
                "ubench_steps": round(self.ubench_fence_steps, 6),
                "rollback_rate": round(self.rollback_rate_fence, 6),
            },
            "chips": [chip.to_dict() for chip in self.chips],
            "outliers": list(self.outliers),
        }

    def render(self) -> str:
        """Operator-facing triage table."""
        rows = [
            (
                chip.chip_id,
                round(chip.mean_idle_steps, 2),
                round(chip.mean_ubench_steps, 2),
                chip.min_ubench_steps,
                chip.max_rollback_steps,
                round(chip.rollback_rate, 2),
                ",".join(chip.flags) if chip.flags else "ok",
            )
            for chip in self.chips
        ]
        table = ascii_table(
            ("chip", "idle", "ubench", "min_ub", "max_rb", "rb_rate", "health"),
            rows,
            title=(
                f"fleet health: {self.n_chips} chips x {self.n_cores} cores "
                f"(seed {self.seed}, trials {self.trials}, fence k={self.fence_k:g})"
            ),
        )
        lines = [
            table,
            "",
            f"fences: idle < {self.idle_fence_steps:.2f} steps, "
            f"ubench < {self.ubench_fence_steps:.2f} steps, "
            f"rollback rate > {self.rollback_rate_fence:.2f}",
        ]
        if self.outliers:
            lines.append(
                f"outliers ({len(self.outliers)}): {', '.join(self.outliers)}"
            )
        else:
            lines.append("outliers: none")
        return "\n".join(lines)


def assess_from_stats(
    stats: Sequence[ChipStats],
    *,
    seed: int,
    trials: int,
    fence_k: float = DEFAULT_FENCE_K,
) -> FleetHealthReport:
    """Apply the quantile fences to already-collected per-chip stats."""
    if not stats:
        raise ConfigurationError("fleet health needs at least one chip")

    idle_counts: dict[int, int] = {}
    ubench_counts: dict[int, int] = {}
    rollback_counts: dict[int, int] = {}
    for chip in stats:
        for counts, source in (
            (idle_counts, chip.idle_limit_counts),
            (ubench_counts, chip.ubench_limit_counts),
            (rollback_counts, chip.rollback_counts),
        ):
            for steps, count in source.items():
                counts[steps] = counts.get(steps, 0) + count

    idle_fence_steps = quantile_fence(idle_counts, k=fence_k, op="below", floor=1.0)
    ubench_fence_steps = quantile_fence(ubench_counts, k=fence_k, op="below", floor=1.0)
    n_cores = stats[0].n_cores
    rate_fence = quantile_fence(
        Counter(chip.rollback_rate for chip in stats),
        k=fence_k,
        op="above",
        floor=1.0 / n_cores,
    )

    chips = []
    for chip in stats:
        flags = []
        if chip.mean_idle_steps < idle_fence_steps:
            flags.append("low_idle_limit")
        if chip.mean_ubench_steps < ubench_fence_steps:
            flags.append("low_ubench_limit")
        if chip.rollback_rate > rate_fence:
            flags.append("high_rollback_rate")
        chips.append(
            ChipHealth(
                chip_id=chip.chip_id,
                mean_idle_steps=chip.mean_idle_steps,
                mean_ubench_steps=chip.mean_ubench_steps,
                min_ubench_steps=chip.min_ubench_steps,
                max_rollback_steps=chip.max_rollback_steps,
                rollback_rate=chip.rollback_rate,
                flags=tuple(flags),
            )
        )
    return FleetHealthReport(
        n_chips=len(stats),
        n_cores=n_cores,
        seed=seed,
        trials=trials,
        fence_k=fence_k,
        idle_limit_counts=idle_counts,
        ubench_limit_counts=ubench_counts,
        rollback_counts=rollback_counts,
        idle_fence_steps=idle_fence_steps,
        ubench_fence_steps=ubench_fence_steps,
        rollback_rate_fence=rate_fence,
        chips=tuple(chips),
    )


def assess_fleet(
    n_chips: int,
    *,
    seed: int = 2019,
    trials: int = 4,
    n_cores: int = CORES_PER_CHIP,
    fence_k: float = DEFAULT_FENCE_K,
    noise_sigma_ps: float = 0.1,
) -> FleetHealthReport:
    """Characterize a sampled fleet and triage it (``repro fleet health``).

    ``fence_k`` is checked before any chip is characterized.
    """
    check_fence_k(fence_k)
    stats = collect_chip_stats(
        n_chips,
        seed=seed,
        trials=trials,
        n_cores=n_cores,
        noise_sigma_ps=noise_sigma_ps,
    )
    return assess_from_stats(stats, seed=seed, trials=trials, fence_k=fence_k)
