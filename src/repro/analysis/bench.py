"""Wall-clock benchmark of the experiment suite (``repro bench``).

This is harness self-measurement, not simulation: how long does each
reproduced experiment take, how much does the solve cache help, and how
does the suite compare against a recorded pre-optimization baseline.  All
clock reads go through :mod:`repro.obs.profiling` (the sole RL002
exemption) and the readings land only in the operator-facing
``BENCH_solver.json`` artifact — never in event streams or run manifests.

Timing on shared hosts is noisy, so the harness runs the suite
``repeat`` times and keeps the best (minimum) wall per experiment: the
minimum estimates the compute cost with the least scheduling noise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import ConfigurationError, SimulationError
from ..experiments import REGISTRY
from ..fastpath.cache import get_solve_cache, reset_solve_cache
from ..obs.profiling import wall_clock_s
from ..obs.stream import gates

#: Schema tag written into the artifact so downstream tooling can evolve.
#: v2 adds the persistent-store cold/warm entry (``store``), v3 the
#: alerting-tax entry (``obs_export``), alongside the v1 fields; older
#: artifacts still load in :func:`compare_to_baseline`.
SCHEMA = "bench_solver/v3"

#: Minimum warm-over-cold speedup the persistent solve store must keep
#: delivering for ``--compare`` to pass when the fresh run benched it.
STORE_SPEEDUP_FLOOR = 3.0

#: Maximum wall-clock ratio the tsdb-capture + alert-evaluation path may
#: reach over a plain fleet characterization for ``--compare`` to pass
#: when the fresh run benched it (1.05 = at most 5% alerting tax).
ALERTS_OVERHEAD_CEILING = 1.05


@dataclass(frozen=True)
class FleetBench:
    """Population-vs-loop solve timing over a sampled fleet.

    Both strategies converge the identical (chip, assignment rows) work
    list from a cold solve cache; results are checked equal before the
    numbers are reported, so the speedup can never come from divergence.
    """

    n_chips: int
    rows_per_chip: int
    chip_loop_wall_s: float
    population_wall_s: float

    @property
    def speedup(self) -> float:
        """Chip-at-a-time wall over fleet-batched wall."""
        if self.population_wall_s <= 0.0:
            return float("inf")
        return self.chip_loop_wall_s / self.population_wall_s

    def to_dict(self) -> dict:
        return {
            "n_chips": self.n_chips,
            "rows_per_chip": self.rows_per_chip,
            "chip_loop_wall_s": round(self.chip_loop_wall_s, 4),
            "population_wall_s": round(self.population_wall_s, 4),
            "speedup": round(self.speedup, 4),
        }


def run_fleet_bench(
    n_chips: int = 500,
    *,
    seed: int = 2019,
    rows_per_chip: int = 4,
    repeat: int = 1,
) -> FleetBench:
    """Time fleet solving: chip-at-a-time ``solve_many`` loop vs
    :func:`~repro.fastpath.population.solve_population`.

    Samples ``n_chips`` chips, builds each a reduction ladder of
    ``rows_per_chip`` assignment rows, compiles the chip tables outside
    the timed region (both strategies need them), then times each
    strategy from a cold cache, best of ``repeat``.  Raises
    :class:`SimulationError` if the two strategies disagree on any
    per-chip state.
    """
    from ..atm.chip_sim import ChipSim
    from ..fastpath.population import solve_population
    from ..silicon.chipspec import sample_chip

    if n_chips < 1:
        raise ConfigurationError(f"fleet chips must be >= 1, got {n_chips}")
    if rows_per_chip < 1:
        raise ConfigurationError(
            f"rows_per_chip must be >= 1, got {rows_per_chip}"
        )
    if repeat < 1:
        raise ConfigurationError(f"repeat must be >= 1, got {repeat}")

    sims = []
    rows_per = []
    for index in range(n_chips):
        chip = sample_chip(seed + index, chip_id=f"F{index}")
        sim = ChipSim(chip)
        sim.compiled  # noqa: B018 — build the tables outside the timed region
        max_step = int(min(core.preset_code for core in chip.cores))
        rows_per.append(
            [
                sim.uniform_assignments(reduction_steps=min(step, max_step))
                for step in range(rows_per_chip)
            ]
        )
        sims.append(sim)

    loop_wall_s = float("inf")
    population_wall_s = float("inf")
    loop_states: list = []
    population_states: list = []
    for _ in range(repeat):
        reset_solve_cache()
        start_s = wall_clock_s()
        loop_states = [
            sim.solve_many(rows) for sim, rows in zip(sims, rows_per)
        ]
        loop_wall_s = min(loop_wall_s, wall_clock_s() - start_s)

        reset_solve_cache()
        start_s = wall_clock_s()
        population_states = solve_population(sims, rows_per)
        population_wall_s = min(population_wall_s, wall_clock_s() - start_s)
    reset_solve_cache()

    for loop_chip, population_chip in zip(loop_states, population_states):
        for one, two in zip(loop_chip, population_chip):
            if one.freqs_mhz != two.freqs_mhz:  # repro-lint: disable=RL005
                # Bitwise contract check — any mismatch at all is a bug.
                raise SimulationError(
                    "population solve deviates from the chip-at-a-time loop"
                )
    return FleetBench(
        n_chips=n_chips,
        rows_per_chip=rows_per_chip,
        chip_loop_wall_s=loop_wall_s,
        population_wall_s=population_wall_s,
    )


@dataclass(frozen=True)
class ObsOverheadBench:
    """Instrumentation tax: fleet characterization observed vs dark.

    Both runs converge the identical chip set from a cold solve cache; the
    observed run collects metrics behind a NullSink — the always-on
    configuration fleet-scale runs pay for — so the delta is the metric-fold tax, not event serialization
    or disk I/O.
    """

    n_chips: int
    disabled_wall_s: float
    enabled_wall_s: float
    probes: int

    @property
    def overhead_ratio(self) -> float:
        """Fractional slowdown of the observed run (0.0 = free)."""
        if self.disabled_wall_s <= 0.0:
            return 0.0
        return max(0.0, self.enabled_wall_s / self.disabled_wall_s - 1.0)

    def to_dict(self) -> dict:
        return {
            "n_chips": self.n_chips,
            "disabled_wall_s": round(self.disabled_wall_s, 4),
            "enabled_wall_s": round(self.enabled_wall_s, 4),
            "probes": self.probes,
            "overhead_ratio": round(self.overhead_ratio, 4),
        }


def run_obs_overhead_bench(
    n_chips: int = 32,
    *,
    seed: int = 2019,
    repeat: int = 1,
) -> ObsOverheadBench:
    """Time :func:`~repro.core.fleet.characterize_fleet` dark vs observed.

    Best-of-``repeat`` walls on each side, cold solve cache per pass.  The
    observed side uses a :class:`~repro.obs.sinks.NullSink` (events are
    suppressed at the construction site; instruments still fold), so the
    measured overhead is the instrumentation tax of the metrics-only
    fleet path — the number the tools/check.sh obs-overhead gate holds
    below its threshold.
    """
    from ..core.fleet import characterize_fleet
    from ..obs.metrics import MetricsRegistry
    from ..obs.runtime import Observability, observed
    from ..obs.sinks import NullSink

    if n_chips < 1:
        raise ConfigurationError(f"obs bench chips must be >= 1, got {n_chips}")
    if repeat < 1:
        raise ConfigurationError(f"repeat must be >= 1, got {repeat}")

    disabled_wall_s = float("inf")
    enabled_wall_s = float("inf")
    probes = 0
    for _ in range(repeat):
        reset_solve_cache()
        start_s = wall_clock_s()
        dark = characterize_fleet(n_chips, seed=seed)
        disabled_wall_s = min(disabled_wall_s, wall_clock_s() - start_s)

        reset_solve_cache()
        obs = Observability(NullSink(), metrics=MetricsRegistry())
        start_s = wall_clock_s()
        with observed(obs):
            lit = characterize_fleet(n_chips, seed=seed)
        enabled_wall_s = min(enabled_wall_s, wall_clock_s() - start_s)
        probes = lit.probe_runs
        if lit.to_dict() != dark.to_dict():
            raise SimulationError(
                "observed fleet characterization deviates from the dark run"
            )
    reset_solve_cache()
    return ObsOverheadBench(
        n_chips=n_chips,
        disabled_wall_s=disabled_wall_s,
        enabled_wall_s=enabled_wall_s,
        probes=probes,
    )


@dataclass(frozen=True)
class StoreBench:
    """Persistent solve-store payoff: cold vs warm fleet characterization.

    The cold pass populates a fresh store (characterize + compile + solve,
    plus record writes); the warm pass re-runs the identical fleet against
    that store, compiles each chip from its draw, and must serve every
    characterization and converged state from disk.  Reports are checked
    byte-equal before the numbers are reported, so the speedup can never
    come from divergence.
    """

    n_chips: int
    trials: int
    cold_wall_s: float
    warm_wall_s: float
    warm_hits: int
    warm_misses: int
    store_entries: int
    store_bytes: int

    @property
    def speedup(self) -> float:
        """Cold wall over warm wall (the warm-run payoff)."""
        if self.warm_wall_s <= 0.0:
            return float("inf")
        return self.cold_wall_s / self.warm_wall_s

    def to_dict(self) -> dict:
        return {
            "n_chips": self.n_chips,
            "trials": self.trials,
            "cold_wall_s": round(self.cold_wall_s, 4),
            "warm_wall_s": round(self.warm_wall_s, 4),
            "speedup": round(self.speedup, 4),
            "warm_hits": self.warm_hits,
            "warm_misses": self.warm_misses,
            "store_entries": self.store_entries,
            "store_bytes": self.store_bytes,
        }


def run_store_bench(
    n_chips: int = 256,
    *,
    seed: int = 2019,
    trials: int = 4,
    repeat: int = 1,
) -> StoreBench:
    """Time :func:`~repro.core.fleet.characterize_fleet` cold vs warm.

    Each cold pass runs into a *fresh* temporary store (so it always pays
    characterization, compilation, solving, and record writes); warm
    passes re-run against the first cold pass's populated store.  Best
    wall on each side over ``repeat`` passes.  Raises
    :class:`SimulationError` if any pass's report deviates from the cold
    reference — the store must never change result bytes.
    """
    import tempfile
    from pathlib import Path as _Path

    from ..core.fleet import characterize_fleet
    from ..fastpath.store import configure_store, reset_store

    if n_chips < 1:
        raise ConfigurationError(f"store bench chips must be >= 1, got {n_chips}")
    if repeat < 1:
        raise ConfigurationError(f"repeat must be >= 1, got {repeat}")

    cold_wall_s = float("inf")
    warm_wall_s = float("inf")
    warm_hits = 0
    warm_misses = 0
    store_entries = 0
    store_bytes = 0
    reference: dict | None = None
    with tempfile.TemporaryDirectory(prefix="repro-store-bench-") as tmp:
        try:
            for pass_index in range(repeat):
                root = _Path(tmp) / f"cold{pass_index}"
                configure_store(root)
                reset_solve_cache()
                start_s = wall_clock_s()
                cold = characterize_fleet(n_chips, seed=seed, trials=trials)
                cold_wall_s = min(cold_wall_s, wall_clock_s() - start_s)
                if reference is None:
                    reference = cold.to_dict()
                elif cold.to_dict() != reference:
                    raise SimulationError(
                        "cold store pass deviates from the reference run"
                    )

            # Warm passes replay the *first* cold pass's store.
            warm_store = configure_store(_Path(tmp) / "cold0")
            for _ in range(repeat):
                reset_solve_cache()
                before = warm_store.stats()
                start_s = wall_clock_s()
                warm = characterize_fleet(n_chips, seed=seed, trials=trials)
                warm_wall_s = min(warm_wall_s, wall_clock_s() - start_s)
                after = warm_store.stats()
                warm_hits = after["hits"] - before["hits"]
                warm_misses = after["misses"] - before["misses"]
                if warm.to_dict() != reference:
                    raise SimulationError(
                        "warm store run deviates from the cold run"
                    )
            store_entries = len(warm_store)
            store_bytes = (
                warm_store.dat_path.stat().st_size
                if warm_store.dat_path.exists()
                else 0
            )
        finally:
            reset_store()
            reset_solve_cache()
    return StoreBench(
        n_chips=n_chips,
        trials=trials,
        cold_wall_s=cold_wall_s,
        warm_wall_s=warm_wall_s,
        warm_hits=warm_hits,
        warm_misses=warm_misses,
        store_entries=store_entries,
        store_bytes=store_bytes,
    )


@dataclass(frozen=True)
class ObsExportBench:
    """Alerting tax: fleet characterization plain vs tsdb-captured.

    The alerting pass runs the identical fleet while recording per-chip
    series into a :class:`~repro.obs.tsdb.Tsdb` and then evaluates the
    default alert-rule pack over the captured windows — the always-on
    cost of the alerting layer.  The OpenMetrics render is timed
    separately (it is a read-side export, not part of the capture tax).
    Reports are checked equal before the numbers are reported, so the
    overhead can never hide divergence.
    """

    n_chips: int
    plain_wall_s: float
    alerting_wall_s: float
    export_wall_s: float
    series: int
    samples: int
    alerts_fired: int

    @property
    def overhead_ratio(self) -> float:
        """Fractional slowdown of the alerting run (0.0 = free)."""
        if self.plain_wall_s <= 0.0:
            return 0.0
        return max(0.0, self.alerting_wall_s / self.plain_wall_s - 1.0)

    def to_dict(self) -> dict:
        return {
            "n_chips": self.n_chips,
            "plain_wall_s": round(self.plain_wall_s, 4),
            "alerting_wall_s": round(self.alerting_wall_s, 4),
            "export_wall_s": round(self.export_wall_s, 4),
            "series": self.series,
            "samples": self.samples,
            "alerts_fired": self.alerts_fired,
            "overhead_ratio": round(self.overhead_ratio, 4),
        }


def run_obs_export_bench(
    n_chips: int = 128,
    *,
    seed: int = 2019,
    repeat: int = 1,
) -> ObsExportBench:
    """Time fleet characterization plain vs tsdb-captured-and-alerted.

    Best-of-``repeat`` walls on each side, cold solve cache per pass.
    The alerting side threads a fresh :class:`~repro.obs.tsdb.Tsdb`
    through :func:`~repro.core.fleet.characterize_fleet` and evaluates
    :func:`~repro.obs.alerts.default_rule_pack` over the captured
    windows; the tools/check.sh alerting gate holds the measured
    overhead below :data:`ALERTS_OVERHEAD_CEILING`.  The OpenMetrics
    page render is timed on its own so export cost is visible without
    polluting the capture tax.  Raises :class:`SimulationError` if the
    alerting run's report deviates from the plain run's.
    """
    from ..core.fleet import characterize_fleet
    from ..obs.alerts import default_rule_pack, evaluate_rules
    from ..obs.tsdb import Tsdb, render_openmetrics

    if n_chips < 1:
        raise ConfigurationError(
            f"export bench chips must be >= 1, got {n_chips}"
        )
    if repeat < 1:
        raise ConfigurationError(f"repeat must be >= 1, got {repeat}")

    rules = default_rule_pack()
    plain_wall_s = float("inf")
    alerting_wall_s = float("inf")
    export_wall_s = float("inf")
    series = 0
    samples = 0
    alerts_fired = 0
    for _ in range(repeat):
        reset_solve_cache()
        start_s = wall_clock_s()
        plain = characterize_fleet(n_chips, seed=seed)
        plain_wall_s = min(plain_wall_s, wall_clock_s() - start_s)

        reset_solve_cache()
        tsdb = Tsdb("bench_fleet", seed)
        start_s = wall_clock_s()
        alerted = characterize_fleet(n_chips, seed=seed, tsdb=tsdb)
        outcome = evaluate_rules(tsdb, rules)
        alerting_wall_s = min(alerting_wall_s, wall_clock_s() - start_s)

        start_s = wall_clock_s()
        render_openmetrics(tsdb=tsdb)
        export_wall_s = min(export_wall_s, wall_clock_s() - start_s)

        series = len(tsdb)
        samples = sum(
            tsdb.series(metric).sample_count for metric in tsdb.metrics()
        )
        alerts_fired = len(outcome.alerts)
        if alerted.to_dict() != plain.to_dict():
            raise SimulationError(
                "tsdb-captured fleet characterization deviates from the "
                "plain run"
            )
    reset_solve_cache()
    return ObsExportBench(
        n_chips=n_chips,
        plain_wall_s=plain_wall_s,
        alerting_wall_s=alerting_wall_s,
        export_wall_s=export_wall_s,
        series=series,
        samples=samples,
        alerts_fired=alerts_fired,
    )


@dataclass(frozen=True)
class BenchReport:
    """Measured wall-clock profile of one benchmark invocation."""

    seed: int
    jobs: int
    repeat: int
    experiment_wall_s: dict[str, float]
    total_wall_s: float
    cache_hits: int
    cache_misses: int
    baseline_total_s: float | None
    fleet: FleetBench | None = None
    obs_overhead: ObsOverheadBench | None = None
    store: StoreBench | None = None
    obs_export: ObsExportBench | None = None

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def speedup(self) -> float | None:
        """Suite speedup over the recorded baseline, when one was given."""
        if self.baseline_total_s is None or self.total_wall_s <= 0.0:
            return None
        return self.baseline_total_s / self.total_wall_s

    def to_dict(self) -> dict:
        """JSON document written to ``BENCH_solver.json``."""
        doc: dict = {
            "schema": SCHEMA,
            "seed": self.seed,
            "jobs": self.jobs,
            "repeat": self.repeat,
            "experiments": [
                {"id": experiment_id, "wall_s": round(wall_s, 4)}
                for experiment_id, wall_s in self.experiment_wall_s.items()
            ],
            "total_wall_s": round(self.total_wall_s, 4),
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": round(self.cache_hit_rate, 4),
            },
        }
        if self.baseline_total_s is not None:
            doc["baseline_total_s"] = round(self.baseline_total_s, 4)
            doc["speedup"] = round(self.speedup, 4)
        if self.fleet is not None:
            doc["fleet"] = self.fleet.to_dict()
        if self.obs_overhead is not None:
            doc["obs_overhead"] = self.obs_overhead.to_dict()
        if self.store is not None:
            doc["store"] = self.store.to_dict()
        if self.obs_export is not None:
            doc["obs_export"] = self.obs_export.to_dict()
        return doc

    def render(self) -> str:
        """Plain-text summary for the CLI."""
        lines = [
            f"bench: {len(self.experiment_wall_s)} experiment(s), "
            f"seed {self.seed}, jobs {self.jobs}, best of {self.repeat}"
        ]
        for experiment_id, wall_s in self.experiment_wall_s.items():
            lines.append(f"  {experiment_id:<16} {wall_s:7.3f}s")
        lines.append(f"  {'total':<16} {self.total_wall_s:7.3f}s")
        lines.append(
            f"solve cache: {self.cache_hits} hits / {self.cache_misses} misses "
            f"({100.0 * self.cache_hit_rate:.1f}% hit rate)"
        )
        if self.baseline_total_s is not None:
            lines.append(
                f"baseline: {self.baseline_total_s:.2f}s -> "
                f"speedup {self.speedup:.2f}x"
            )
        if self.fleet is not None:
            lines.append(
                f"fleet ({self.fleet.n_chips} chips x "
                f"{self.fleet.rows_per_chip} rows): "
                f"chip loop {self.fleet.chip_loop_wall_s:.3f}s / "
                f"population {self.fleet.population_wall_s:.3f}s -> "
                f"speedup {self.fleet.speedup:.2f}x"
            )
        if self.obs_overhead is not None:
            oh = self.obs_overhead
            lines.append(
                f"obs overhead ({oh.n_chips} chips, {oh.probes} probes): "
                f"dark {oh.disabled_wall_s:.3f}s / observed "
                f"{oh.enabled_wall_s:.3f}s -> "
                f"+{100.0 * oh.overhead_ratio:.1f}%"
            )
        if self.store is not None:
            st = self.store
            lines.append(
                f"solve store ({st.n_chips} chips, trials {st.trials}): "
                f"cold {st.cold_wall_s:.3f}s / warm {st.warm_wall_s:.3f}s -> "
                f"speedup {st.speedup:.2f}x "
                f"({st.warm_hits} hits / {st.warm_misses} misses warm, "
                f"{st.store_entries} records, {st.store_bytes} B)"
            )
        if self.obs_export is not None:
            ox = self.obs_export
            lines.append(
                f"alerting ({ox.n_chips} chips, {ox.series} series / "
                f"{ox.samples} samples): plain {ox.plain_wall_s:.3f}s / "
                f"alerted {ox.alerting_wall_s:.3f}s -> "
                f"+{100.0 * ox.overhead_ratio:.1f}%, export "
                f"{ox.export_wall_s:.3f}s, {ox.alerts_fired} firing(s)"
            )
        return "\n".join(lines)


def run_bench(
    experiment_ids: list[str] | None = None,
    *,
    seed: int = 2019,
    jobs: int = 1,
    repeat: int = 1,
    baseline_total_s: float | None = None,
    out_path: str | Path | None = "BENCH_solver.json",
    fleet_chips: int = 0,
    obs_chips: int = 0,
    store_chips: int = 0,
    export_chips: int = 0,
) -> BenchReport:
    """Time the experiment suite and (optionally) write the JSON artifact.

    ``jobs=1`` times each experiment individually from a cold solve cache
    (same per-experiment isolation as the pooled runner).  ``jobs>1``
    times the pooled suite as a whole — per-experiment walls measured
    inside workers are not collected, so the per-experiment map then
    carries one ``__suite__`` entry instead.  ``fleet_chips > 0`` appends
    a :class:`FleetBench` entry timing population-vs-loop solving over
    that many sampled chips.  ``obs_chips > 0`` appends an
    :class:`ObsOverheadBench` entry (the tools/check.sh obs-overhead gate
    reads it).
    ``store_chips > 0`` appends a :class:`StoreBench` entry timing fleet
    characterization cold vs warm against a temporary persistent store
    (the tools/check.sh store gate holds its speedup above the floor).
    ``export_chips > 0`` appends an :class:`ObsExportBench` entry timing
    the tsdb-capture + alert-evaluation tax and the OpenMetrics export
    (the tools/check.sh alerting gate holds the tax below
    :data:`ALERTS_OVERHEAD_CEILING`).
    """
    # Local import: analysis must stay importable without dragging the
    # experiment registry's transitive imports in at module load.
    from ..experiments import run_experiment
    from ..experiments.runner import run_many

    ids = list(experiment_ids) if experiment_ids is not None else list(REGISTRY)
    unknown = sorted(set(ids) - set(REGISTRY))
    if unknown:
        raise ConfigurationError(
            f"unknown experiment id(s) {unknown}; known: {', '.join(REGISTRY)}"
        )
    if repeat < 1:
        raise ConfigurationError(f"repeat must be >= 1, got {repeat}")
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")

    walls: dict[str, float] = {}
    cache_hits = 0
    cache_misses = 0
    if jobs == 1:
        for pass_index in range(repeat):
            for experiment_id in ids:
                reset_solve_cache()
                start_s = wall_clock_s()
                run_experiment(experiment_id, seed=seed)
                elapsed_s = wall_clock_s() - start_s
                previous = walls.get(experiment_id)
                if previous is None or elapsed_s < previous:
                    walls[experiment_id] = elapsed_s
                if pass_index == 0:
                    cache = get_solve_cache()
                    cache_hits += cache.hits
                    cache_misses += cache.misses
        total_wall_s = sum(walls.values())
    else:
        total_wall_s = float("inf")
        for _ in range(repeat):
            start_s = wall_clock_s()
            run_many(ids, seed=seed, jobs=jobs)
            total_wall_s = min(total_wall_s, wall_clock_s() - start_s)
        walls["__suite__"] = total_wall_s

    fleet = (
        run_fleet_bench(fleet_chips, seed=seed, repeat=repeat)
        if fleet_chips > 0
        else None
    )
    obs_overhead = (
        run_obs_overhead_bench(obs_chips, seed=seed, repeat=repeat)
        if obs_chips > 0
        else None
    )
    store = (
        run_store_bench(store_chips, seed=seed, repeat=repeat)
        if store_chips > 0
        else None
    )
    obs_export = (
        run_obs_export_bench(export_chips, seed=seed, repeat=repeat)
        if export_chips > 0
        else None
    )
    report = BenchReport(
        seed=seed,
        jobs=jobs,
        repeat=repeat,
        experiment_wall_s=walls,
        total_wall_s=total_wall_s,
        cache_hits=cache_hits,
        cache_misses=cache_misses,
        baseline_total_s=baseline_total_s,
        fleet=fleet,
        obs_overhead=obs_overhead,
        store=store,
        obs_export=obs_export,
    )
    if out_path is not None:
        path = Path(out_path)
        path.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    return report


def compare_to_baseline(
    report: BenchReport,
    baseline_path: str | Path,
    *,
    threshold: float = 2.0,
    noise_floor_s: float = gates.MIN_REGRESSION_S,
) -> tuple[bool, str]:
    """Diff a fresh bench run against a committed artifact (CI perf gate).

    Compares the total wall-clock over the experiments both runs measured;
    the gate trips when ``fresh / baseline > threshold`` *and* the
    absolute delta exceeds ``noise_floor_s`` (default
    :data:`~repro.obs.stream.gates.MIN_REGRESSION_S`: sub-50 ms deltas are
    scheduling noise, not regressions; ``--noise-floor-ms`` tunes it).
    When the fresh run
    carries a :class:`StoreBench` entry, its warm-over-cold speedup must
    also stay above :data:`STORE_SPEEDUP_FLOOR` — the same two-condition
    shape, gating ``warm`` against ``cold / floor``.  Returns
    ``(ok, text)`` — the caller turns ``ok=False`` into a non-zero exit.
    """
    gates.check_ratio_gate(threshold, noise_floor_s)
    path = Path(baseline_path)
    if not path.exists():
        raise ConfigurationError(f"no bench baseline at {path}")
    doc = json.loads(path.read_text(encoding="utf-8"))
    schema = str(doc.get("schema", ""))
    if not schema.startswith("bench_solver/"):
        raise ConfigurationError(
            f"{path} is not a bench artifact (schema {schema!r})"
        )
    baseline_walls = {
        entry["id"]: float(entry["wall_s"])
        for entry in doc.get("experiments", [])
    }
    shared = [
        experiment_id
        for experiment_id in report.experiment_wall_s
        if experiment_id in baseline_walls
    ]
    if not shared:
        raise ConfigurationError(
            f"no overlapping experiments between this run and {path}"
        )

    lines = [f"compare vs {path} ({len(shared)} shared experiment(s)):"]
    for experiment_id in shared:
        fresh_s = report.experiment_wall_s[experiment_id]
        base_s = baseline_walls[experiment_id]
        ratio = fresh_s / base_s if base_s > 0.0 else float("inf")
        lines.append(
            f"  {experiment_id:<16} {fresh_s:7.3f}s vs {base_s:7.3f}s "
            f"({ratio:5.2f}x)"
        )
    fresh_total = sum(report.experiment_wall_s[i] for i in shared)
    base_total = sum(baseline_walls[i] for i in shared)
    total_ratio = fresh_total / base_total if base_total > 0.0 else float("inf")
    lines.append(
        f"  {'total':<16} {fresh_total:7.3f}s vs {base_total:7.3f}s "
        f"({total_ratio:5.2f}x, threshold {threshold:.2f}x)"
    )
    if report.fleet is not None and "fleet" in doc:
        lines.append(
            f"  fleet speedup: {report.fleet.speedup:.2f}x now vs "
            f"{float(doc['fleet'].get('speedup', 0.0)):.2f}x committed"
        )

    regressed = gates.exceeds_ratio_gate(
        fresh_total, base_total, threshold=threshold, min_delta=noise_floor_s
    )
    if regressed:
        lines.append(
            f"REGRESSION: total wall exceeds the committed baseline by more "
            f"than {threshold:.2f}x"
        )
    else:
        lines.append("within threshold")

    store_regressed = False
    if report.store is not None:
        st = report.store
        committed = ""
        if "store" in doc:
            committed = (
                f" vs {float(doc['store'].get('speedup', 0.0)):.2f}x committed"
            )
        lines.append(
            f"  store speedup: {st.speedup:.2f}x warm-over-cold{committed} "
            f"(floor {STORE_SPEEDUP_FLOOR:.1f}x)"
        )
        store_regressed = gates.exceeds_ratio_gate(
            st.warm_wall_s,
            st.cold_wall_s / STORE_SPEEDUP_FLOOR,
            threshold=1.0,
            min_delta=noise_floor_s,
        )
        if store_regressed:
            lines.append(
                f"REGRESSION: warm store run no longer beats cold by "
                f"{STORE_SPEEDUP_FLOOR:.1f}x"
            )

    alerts_regressed = False
    if report.obs_export is not None:
        ox = report.obs_export
        committed = ""
        if "obs_export" in doc:
            committed = (
                f" vs +{100.0 * float(doc['obs_export'].get('overhead_ratio', 0.0)):.1f}%"
                " committed"
            )
        lines.append(
            f"  alerting tax: +{100.0 * ox.overhead_ratio:.1f}%{committed} "
            f"(ceiling +{100.0 * (ALERTS_OVERHEAD_CEILING - 1.0):.0f}%)"
        )
        alerts_regressed = gates.exceeds_ratio_gate(
            ox.alerting_wall_s,
            ox.plain_wall_s,
            threshold=ALERTS_OVERHEAD_CEILING,
            min_delta=noise_floor_s,
        )
        if alerts_regressed:
            lines.append(
                f"REGRESSION: alerting capture exceeds the plain run by more "
                f"than {100.0 * (ALERTS_OVERHEAD_CEILING - 1.0):.0f}%"
            )
    return (
        not (regressed or store_regressed or alerts_regressed),
        "\n".join(lines),
    )


__all__ = [
    "BenchReport",
    "FleetBench",
    "ObsExportBench",
    "ObsOverheadBench",
    "StoreBench",
    "compare_to_baseline",
    "run_bench",
    "run_fleet_bench",
    "run_obs_export_bench",
    "run_obs_overhead_bench",
    "run_store_bench",
    "ALERTS_OVERHEAD_CEILING",
    "SCHEMA",
    "STORE_SPEEDUP_FLOOR",
]
