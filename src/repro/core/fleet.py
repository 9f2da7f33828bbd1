"""Fleet-scale characterization over a sampled chip population.

The paper characterizes a two-chip testbed (Sec. V); the methodology only
becomes a vendor story when it is statistically validated across process
variation — thousands of sampled chips, not two.  This driver runs the
Fig. 6 idle → uBench stages over ``n_chips`` independently sampled chips
and converges each chip's baseline and fine-tuned operating points through
the fleet-scale batched solver
(:func:`repro.fastpath.population.solve_chips_cached`, one batch per chunk).

Memory discipline: chips are processed in bounded *chunks* — each chunk's
chips are sampled, characterized, batch-solved, folded into streaming
accumulators, and dropped.  Peak memory is O(chunk size), results are
exactly independent of the chunk size (every chip's RNG streams derive
from ``seed + chip index``, and the solve cache keys on content-addressed
fingerprints), and population size is bounded by wall-clock, not RAM.

Aggregation is streaming: per-step histograms of idle and uBench limits,
nearest-rank quantiles of the safe reduction steps, rollback-rate
summaries, and running min/mean/max of the baseline and fine-tuned
frequencies.  When an :class:`~repro.obs.runtime.Observability` context is
installed the driver feeds the ``fleet.*`` instruments and the run can be
sealed into a standard run manifest (:func:`run_fleet_observed`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from ..analysis.rendering import ascii_table
from ..atm.chip_sim import CoreAssignment, MarginMode, check_assignment_rows
from ..atm.core_sim import check_noise_sigma
from ..errors import ConfigurationError
from ..fastpath.cache import reset_solve_cache
from ..fastpath.compiled import compile_draw
from ..fastpath.population import solve_chips_cached
from ..fastpath.store import (
    KIND_CHAR,
    configure_worker_store,
    diff_stats,
    get_store,
)
from ..obs.manifest import RunManifest, build_manifest, save_manifest
from ..obs.metrics import MetricsRegistry
from ..obs.runtime import Observability, get_obs, observed
from ..obs.sinks import JsonlFileSink, NullSink
from ..obs.stream.exact import MergeableStat
from ..obs.stream.gates import quantile_from_counts
from ..obs.stream.progress import ProgressReporter
from ..obs.stream.rotate import RotatingJsonlSink
from ..obs.tsdb.series import Tsdb
from ..silicon.chipspec import CORES_PER_CHIP, ChipDraw, draw_chips, draw_columns
from ..workloads.base import IDLE
from ..workloads.ubench import UBENCH_SUITE
from .char_record import (
    MAX_CORES,
    char_key,
    characterize_chunk,
    decode_char,
    replay_characterization,
)

#: Default chips per memory-bounded processing chunk.
DEFAULT_CHUNK_SIZE = 64

#: Quantiles reported for the limit distributions.
QUANTILES = (0.10, 0.50, 0.90)


@dataclass(frozen=True)
class FleetReport:
    """Streaming aggregate of one fleet characterization run."""

    n_chips: int
    n_cores: int
    chunk_size: int
    trials: int
    seed: int
    mode: MarginMode
    reduction_steps: int
    #: Histogram of per-core idle limits (safe reduction steps).
    idle_limit_counts: dict[int, int] = field(default_factory=dict)
    #: Histogram of per-core uBench limits.
    ubench_limit_counts: dict[int, int] = field(default_factory=dict)
    #: Histogram of per-core worst uBench rollbacks (steps given back).
    rollback_counts: dict[int, int] = field(default_factory=dict)
    cores_total: int = 0
    cores_rolled_back: int = 0
    probe_runs: int = 0
    baseline_freq_min_mhz: float = 0.0
    baseline_freq_mean_mhz: float = 0.0
    baseline_freq_max_mhz: float = 0.0
    tuned_freq_min_mhz: float = 0.0
    tuned_freq_mean_mhz: float = 0.0
    tuned_freq_max_mhz: float = 0.0

    @property
    def rollback_rate(self) -> float:
        """Fraction of cores whose uBench stage forced a rollback (Fig. 8)."""
        if self.cores_total == 0:
            raise ConfigurationError("report covers no cores")
        return self.cores_rolled_back / self.cores_total

    def limit_quantile(self, which: str, q: float) -> int:
        """Nearest-rank quantile of one of the step histograms."""
        counts = {
            "idle": self.idle_limit_counts,
            "ubench": self.ubench_limit_counts,
            "rollback": self.rollback_counts,
        }.get(which)
        if counts is None:
            raise ConfigurationError(
                f"unknown histogram {which!r}; use idle, ubench, or rollback"
            )
        return quantile_from_counts(counts, q)

    def metrics(self) -> dict[str, float]:
        """Flat metric dict (feeds the run manifest's result metrics)."""
        out = {
            "chips": float(self.n_chips),
            "cores": float(self.cores_total),
            "probe_runs": float(self.probe_runs),
            "rollback_rate": self.rollback_rate,
            "baseline_freq_mean_mhz": self.baseline_freq_mean_mhz,
            "tuned_freq_mean_mhz": self.tuned_freq_mean_mhz,
            "tuned_freq_min_mhz": self.tuned_freq_min_mhz,
            "tuned_freq_max_mhz": self.tuned_freq_max_mhz,
        }
        for name in ("idle", "ubench", "rollback"):
            for q in QUANTILES:
                out[f"{name}_p{int(round(q * 100)):02d}_steps"] = float(
                    self.limit_quantile(name, q)
                )
        return out

    def to_dict(self) -> dict:
        """Canonical JSON-ready form (chunk-invariance is tested on this)."""
        return {
            "n_chips": self.n_chips,
            "n_cores": self.n_cores,
            "trials": self.trials,
            "seed": self.seed,
            "mode": self.mode.value,
            "reduction_steps": self.reduction_steps,
            "idle_limit_counts": {
                str(k): v for k, v in sorted(self.idle_limit_counts.items())
            },
            "ubench_limit_counts": {
                str(k): v for k, v in sorted(self.ubench_limit_counts.items())
            },
            "rollback_counts": {
                str(k): v for k, v in sorted(self.rollback_counts.items())
            },
            "metrics": {k: round(v, 6) for k, v in sorted(self.metrics().items())},
        }

    def render(self) -> str:
        """Operator-facing summary table."""
        def row(name: str, counts: dict[int, int]) -> tuple:
            total = sum(counts.values())
            mean = sum(k * v for k, v in counts.items()) / total
            return (
                name,
                min(counts),
                *(quantile_from_counts(counts, q) for q in QUANTILES),
                max(counts),
                round(mean, 2),
            )

        table = ascii_table(
            ("distribution", "min", "p10", "p50", "p90", "max", "mean"),
            [
                row("idle limit steps", self.idle_limit_counts),
                row("uBench limit steps", self.ubench_limit_counts),
                row("uBench rollback steps", self.rollback_counts),
            ],
            title=(
                f"fleet characterization: {self.n_chips} chips x "
                f"{self.n_cores} cores (seed {self.seed}, trials {self.trials}, "
                f"baseline {self.mode.value}+{self.reduction_steps})"
            ),
        )
        lines = [
            table,
            "",
            f"rollback rate: {100.0 * self.rollback_rate:.1f}% of "
            f"{self.cores_total} cores",
            f"baseline freq MHz: min {self.baseline_freq_min_mhz:.0f} / "
            f"mean {self.baseline_freq_mean_mhz:.0f} / "
            f"max {self.baseline_freq_max_mhz:.0f}",
            f"fine-tuned freq MHz: min {self.tuned_freq_min_mhz:.0f} / "
            f"mean {self.tuned_freq_mean_mhz:.0f} / "
            f"max {self.tuned_freq_max_mhz:.0f}",
            f"probe runs: {self.probe_runs}",
        ]
        return "\n".join(lines)


def _validate_fleet_args(
    n_chips: int,
    chunk_size: int,
    trials: int,
    n_cores: int,
    mode: MarginMode,
    reduction_steps: int,
    noise_sigma_ps: float,
) -> None:
    """Reject malformed fleet inputs before any chip is sampled.

    Mirrors the :meth:`ChipSim.uniform_assignments` validation style: the
    baseline row's mode/reduction combination is checked here so
    ``repro fleet`` fails fast instead of deep inside the first chunk.
    """
    if n_chips < 1:
        raise ConfigurationError(f"chips must be >= 1, got {n_chips}")
    if chunk_size < 1:
        raise ConfigurationError(f"chunk size must be >= 1, got {chunk_size}")
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    if n_cores < 1:
        raise ConfigurationError(f"cores must be >= 1, got {n_cores}")
    if n_cores > MAX_CORES:
        # A characterization record stores a core index in one byte.
        raise ConfigurationError(f"cores must be <= {MAX_CORES}, got {n_cores}")
    if reduction_steps < 0:
        raise ConfigurationError(
            f"reduction_steps must be >= 0, got {reduction_steps}"
        )
    if mode is not MarginMode.ATM and reduction_steps != 0:
        raise ConfigurationError(
            f"reduction steps only apply to ATM mode, not {mode}"
        )
    # The chunk pass builds no SafetyProbe, so the fleet checks sigma itself.
    check_noise_sigma(noise_sigma_ps)


#: Workload runs per configuration step in fleet characterization (the
#: :class:`Characterizer` default; part of the characterization record's
#: content address).
_FLEET_REPEATS_PER_STEP = 2


def _characterized_chunk(
    draws: Sequence[ChipDraw],
    chunk: range,
    *,
    seed: int,
    trials: int,
    noise_sigma_ps: float,
):
    """Characterize one drawn chunk (the Fig. 6 idle → uBench stages).

    Fleet chip ``index`` is ``draw_chip(seed + index)`` (``draws`` holds
    the chunk's, from :func:`draw_chips`), characterized as a
    :class:`~repro.core.characterize.Characterizer` seeded ``seed +
    index`` would characterize it — the shared per-chip recipe of
    :func:`characterize_fleet` and :func:`collect_chip_stats`, so both
    observe identical chips (and emit identical event streams) for a
    given seed.

    Yields ``(idle_limits, rollbacks, probes)`` chip by chip, in order:
    per core, the idle limit and the worst uBench rollback, and the
    chip's probe count, as :func:`replay_characterization` returns them.
    Every chip is served through it: a chip whose record the persistent
    store holds replays it; the other (cold) chips are characterized
    together, straight from their draws, by :func:`characterize_chunk`,
    one record at a time, and each cold record is written back (writable
    stores only) just before its chip is yielded, so the store receives
    a chip's records in chip order, interleaved with whatever the caller
    writes for the chip.  No spec object is built either way.
    """
    store = get_store()
    records: list[dict | None] = [None] * len(draws)
    keys: list[bytes | None] = [None] * len(draws)
    if store is not None:
        for position, (index, draw) in enumerate(zip(chunk, draws)):
            keys[position] = key = char_key(
                draw,
                seed=seed + index,
                trials=trials,
                repeats_per_step=_FLEET_REPEATS_PER_STEP,
                noise_sigma_ps=noise_sigma_ps,
                workloads=(IDLE, *UBENCH_SUITE),
            )
            payload = store.get(KIND_CHAR, key)
            if payload is None:
                continue
            record = decode_char(payload)
            if record is not None and record["labels"] == list(draw.labels):
                records[position] = record
            else:
                store.reject(KIND_CHAR, key)

    cold = [position for position, record in enumerate(records) if record is None]
    fresh = characterize_chunk(
        [draws[position] for position in cold],
        [seed + chunk[position] for position in cold],
        trials=trials,
        repeats_per_step=_FLEET_REPEATS_PER_STEP,
        noise_sigma_ps=noise_sigma_ps,
    )
    obs = get_obs()
    for position, record in enumerate(records):
        if record is None:
            record, payload = next(fresh)
            if store is not None and payload is not None:
                store.put(KIND_CHAR, keys[position], payload)
        yield replay_characterization(record, obs)


def _chunks(n_chips: int, chunk_size: int) -> list[range]:
    """Consecutive index ranges of at most ``chunk_size`` chips covering
    ``range(n_chips)``."""
    return [
        range(start, min(start + chunk_size, n_chips))
        for start in range(0, n_chips, chunk_size)
    ]


@dataclass(frozen=True)
class ChipStats:
    """Per-chip characterization digest (the fleet-health input row)."""

    chip_id: str
    n_cores: int
    idle_limit_counts: dict[int, int]
    ubench_limit_counts: dict[int, int]
    rollback_counts: dict[int, int]
    probe_runs: int

    @staticmethod
    def _mean(counts: dict[int, int]) -> float:
        total = sum(counts.values())
        if total == 0:
            raise ConfigurationError("chip stats cover no cores")
        return sum(step * count for step, count in counts.items()) / total

    @property
    def mean_idle_steps(self) -> float:
        return self._mean(self.idle_limit_counts)

    @property
    def mean_ubench_steps(self) -> float:
        return self._mean(self.ubench_limit_counts)

    @property
    def min_ubench_steps(self) -> int:
        return min(self.ubench_limit_counts)

    @property
    def max_rollback_steps(self) -> int:
        return max(self.rollback_counts)

    @property
    def rollback_rate(self) -> float:
        """Fraction of this chip's cores whose uBench stage rolled back."""
        rolled = sum(
            count for steps, count in self.rollback_counts.items() if steps > 0
        )
        return rolled / self.n_cores


def collect_chip_stats(
    n_chips: int,
    *,
    seed: int = 2019,
    trials: int = 4,
    n_cores: int = CORES_PER_CHIP,
    noise_sigma_ps: float = 0.1,
) -> tuple[ChipStats, ...]:
    """Per-chip limit/rollback digests over a sampled fleet.

    The characterization-only sibling of :func:`characterize_fleet`: same
    chips, same per-chip RNG streams, but no operating-point solves and
    no aggregation — the per-chip rows feed
    :mod:`repro.core.fleet_health`'s outlier fences.
    """
    _validate_fleet_args(
        n_chips, 1, trials, n_cores, MarginMode.ATM, 0, noise_sigma_ps
    )
    stats = []
    # One chunk of chips alive at a time keeps memory O(chunk size).
    for chunk in _chunks(n_chips, DEFAULT_CHUNK_SIZE):
        draws = draw_chips(seed, chunk, n_cores=n_cores)
        for draw, (idle, rollbacks, probes) in zip(
            draws,
            _characterized_chunk(
                draws,
                chunk,
                seed=seed,
                trials=trials,
                noise_sigma_ps=noise_sigma_ps,
            ),
        ):
            stats.append(
                ChipStats(
                    chip_id=draw.chip_id,
                    n_cores=draw.n_cores,
                    idle_limit_counts=_tally({}, idle),
                    ubench_limit_counts=_tally(
                        {}, [limit - back for limit, back in zip(idle, rollbacks)]
                    ),
                    rollback_counts=_tally({}, rollbacks),
                    probe_runs=probes,
                )
            )
    return tuple(stats)


def _tally(counts: dict[int, int], values: list[int]) -> dict[int, int]:
    """Count each of ``values`` into ``counts`` (new keys in order of first
    occurrence) and return ``counts``."""
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return counts


class _FleetAccumulator:
    """Order-invariant fold state of a fleet run (the mergeable rollup).

    Every component is a commutative, associative function of the
    per-core observation multiset — integer counts and exact
    :class:`~repro.obs.stream.exact.MergeableStat` sums — so folding
    per-chunk partials in *any* order (serial chunk loop, ``--jobs N``
    pool completion order) produces the same :class:`FleetReport` bytes.
    """

    __slots__ = (
        "idle_counts",
        "ubench_counts",
        "rollback_counts",
        "cores_total",
        "cores_rolled_back",
        "probe_runs",
        "chips",
        "baseline_stat",
        "tuned_stat",
    )

    def __init__(self):
        self.idle_counts: dict[int, int] = {}
        self.ubench_counts: dict[int, int] = {}
        self.rollback_counts: dict[int, int] = {}
        self.cores_total = 0
        self.cores_rolled_back = 0
        self.probe_runs = 0
        self.chips = 0
        self.baseline_stat = MergeableStat()
        self.tuned_stat = MergeableStat()

    def merge_state(self, state: dict) -> None:
        """Fold one worker's :meth:`to_state` partial in."""
        for mine, theirs in (
            (self.idle_counts, state["idle_counts"]),
            (self.ubench_counts, state["ubench_counts"]),
            (self.rollback_counts, state["rollback_counts"]),
        ):
            for key, count in theirs.items():
                key = int(key)
                mine[key] = mine.get(key, 0) + int(count)
        self.cores_total += int(state["cores_total"])
        self.cores_rolled_back += int(state["cores_rolled_back"])
        self.probe_runs += int(state["probe_runs"])
        self.chips += int(state["chips"])
        self.baseline_stat.merge(MergeableStat.from_state(state["baseline_stat"]))
        self.tuned_stat.merge(MergeableStat.from_state(state["tuned_stat"]))

    def to_state(self) -> dict:
        """Picklable partial-summary form (what pool workers return)."""
        return {
            "idle_counts": dict(self.idle_counts),
            "ubench_counts": dict(self.ubench_counts),
            "rollback_counts": dict(self.rollback_counts),
            "cores_total": self.cores_total,
            "cores_rolled_back": self.cores_rolled_back,
            "probe_runs": self.probe_runs,
            "chips": self.chips,
            "baseline_stat": self.baseline_stat.to_state(),
            "tuned_stat": self.tuned_stat.to_state(),
        }


def _process_chunk(
    accumulator: _FleetAccumulator,
    chunk: range,
    *,
    seed: int,
    trials: int,
    n_cores: int,
    mode: MarginMode,
    reduction_steps: int,
    noise_sigma_ps: float,
    obs: Observability,
    tsdb: Tsdb | None = None,
) -> None:
    """Characterize + solve one chunk of chips into ``accumulator``.

    Every chip runs one path, straight from its draw: its
    characterization is replayed from its record
    (:func:`_characterized_chunk`) as per-core idle-limit and
    worst-rollback columns, its assignment rows are plain
    :class:`CoreAssignment` tuples checked against the chunk's preset
    codes (one ``tolist()`` of the drawn block), and :func:`compile_draw`
    compiles its tables from the draw or serves them from the persistent
    store.  The solve batch (:func:`solve_chips_cached`) serves stored
    converged states from disk too, and every record a cold chip produces
    is written back.
    """
    # One assignment object per distinct (mode, reduction) in the chunk,
    # so each pays its first (memoized) hash in the solve memo once.
    baseline_row = (
        CoreAssignment(workload=IDLE, mode=mode, reduction_steps=reduction_steps),
    ) * n_cores
    tuned: dict[int, CoreAssignment] = {}
    entries = []
    columns = []
    draws = draw_chips(seed, chunk, n_cores=n_cores)
    presets = draw_columns(draws, "preset_codes").tolist()
    for draw, chip_presets, (idle, rollbacks, probes) in zip(
        draws,
        presets,
        _characterized_chunk(
            draws, chunk, seed=seed, trials=trials, noise_sigma_ps=noise_sigma_ps
        ),
    ):
        ubench = [limit - back for limit, back in zip(idle, rollbacks)]
        tuned_row = []
        for limit in ubench:
            assignment = tuned.get(limit)
            if assignment is None:
                assignment = tuned[limit] = CoreAssignment(
                    workload=IDLE, reduction_steps=limit
                )
            tuned_row.append(assignment)
        rows = [baseline_row, tuple(tuned_row)]
        check_assignment_rows(draw.chip_id, draw.labels, chip_presets, rows)
        entries.append((compile_draw(draw), rows, None))
        columns.append((idle, ubench, rollbacks, probes))

    states = solve_chips_cached(entries)

    if obs.enabled:
        # One registry lookup per instrument per chunk, not per chip.
        metrics = obs.metrics
        chips_counter = metrics.counter("fleet.chips")
        cores_counter = metrics.counter("fleet.cores")
        idle_hist = metrics.histogram("fleet.idle_limit_steps")
        rollback_hist = metrics.histogram("fleet.ubench_rollback_steps")
        tuned_gauge = metrics.gauge("fleet.tuned_slowest_mhz")

    for index, (idle, ubench, rollbacks, probes), (baseline_state, tuned_state) in zip(
        chunk, columns, states
    ):
        accumulator.probe_runs += probes
        accumulator.chips += 1
        _tally(accumulator.idle_counts, idle)
        _tally(accumulator.ubench_counts, ubench)
        _tally(accumulator.rollback_counts, rollbacks)
        accumulator.cores_total += len(idle)
        accumulator.cores_rolled_back += sum(back > 0 for back in rollbacks)
        for freq in baseline_state.freqs_mhz:
            accumulator.baseline_stat.add(freq)
        for freq in tuned_state.freqs_mhz:
            accumulator.tuned_stat.add(freq)
        if obs.enabled:
            chips_counter.inc()
            cores_counter.inc(len(idle))
            for limit, back in zip(idle, rollbacks):
                idle_hist.observe(float(limit))
                rollback_hist.observe(float(back))
            # Tick = global chip index: partition-invariant, so the
            # gauge's "last" is the highest-index chip under any chunk
            # size or worker scheduling.
            tuned_gauge.set(float(tuned_state.slowest_mhz), tick=float(index))
        if tsdb is not None:
            _record_chip_series(
                tsdb, index, idle, ubench, rollbacks, probes,
                baseline_state, tuned_state,
            )


def _record_chip_series(
    tsdb: Tsdb,
    index: int,
    idle: list[int],
    ubench: list[int],
    rollbacks: list[int],
    probes: int,
    baseline_state,
    tuned_state,
) -> None:
    """Fold one chip's characterization into the run's tsdb.

    ``idle``, ``ubench`` and ``rollbacks`` hold each core's idle limit,
    uBench limit and worst uBench rollback.  The tick is the global chip
    index, so the windowed series are partition-invariant: any chunking
    or worker scheduling folds the same samples into the same windows,
    and alert evaluation over the tsdb is byte-identical across the
    serial/chunked/pooled matrix.
    """
    tick = float(index)
    baseline_mhz = float(baseline_state.slowest_mhz)
    tuned_mhz = float(tuned_state.slowest_mhz)
    tsdb.record("fleet.baseline_slowest_mhz", tick, baseline_mhz)
    tsdb.record("fleet.tuned_slowest_mhz", tick, tuned_mhz)
    tsdb.record("fleet.tuning_gain_mhz", tick, tuned_mhz - baseline_mhz)
    tsdb.record("fleet.probe_runs", tick, float(probes))
    for idle_limit, ubench_limit, rollback in zip(idle, ubench, rollbacks):
        tsdb.record("fleet.idle_limit_steps", tick, float(idle_limit))
        tsdb.record("fleet.ubench_limit_steps", tick, float(ubench_limit))
        tsdb.record("fleet.ubench_rollback_steps", tick, float(rollback))


def _characterize_chunk_worker(
    chunk_start: int,
    chunk_stop: int,
    seed: int,
    trials: int,
    n_cores: int,
    mode: MarginMode,
    reduction_steps: int,
    noise_sigma_ps: float,
    collect_metrics: bool,
    store_root: str | None,
    tsdb_experiment: str | None,
    tsdb_window_ticks: float,
) -> tuple[dict, dict | None, int, dict | None, dict | None]:
    """Pool worker: fold one chunk into a picklable partial summary.

    Starts from a cold solve cache (scheduling must not leak into
    behaviour) and, when the parent run is observed, collects metrics
    into a private registry behind a
    :class:`~repro.obs.sinks.NullSink` — mergeable summaries come home,
    per-event streams do not (worker interleaving would make them
    nondeterministic).

    ``store_root`` synchronizes the worker to the parent's persistent
    store, opened *read-only*: the store's compiled pages are shared
    zero-copy across the pool through the common mmap, and a worker that
    cannot serve a record recomputes it, so results never depend on
    which process handled a chunk.  The worker's store-counter delta is
    shipped home and folded into the parent store's stats.
    """
    store = configure_worker_store(store_root)
    stats_before = store.stats() if store is not None else None
    reset_solve_cache()
    accumulator = _FleetAccumulator()
    chunk = range(chunk_start, chunk_stop)
    tsdb = (
        Tsdb(tsdb_experiment, seed, window_ticks=tsdb_window_ticks)
        if tsdb_experiment is not None
        else None
    )
    kwargs = dict(
        seed=seed,
        trials=trials,
        n_cores=n_cores,
        mode=mode,
        reduction_steps=reduction_steps,
        noise_sigma_ps=noise_sigma_ps,
        tsdb=tsdb,
    )
    if collect_metrics:
        local_obs = Observability(NullSink(), metrics=MetricsRegistry())
        with observed(local_obs):
            _process_chunk(accumulator, chunk, obs=local_obs, **kwargs)
        registry_state = local_obs.metrics.to_state()
    else:
        disabled = Observability(sink=None)
        _process_chunk(accumulator, chunk, obs=disabled, **kwargs)
        registry_state = None
    store_delta = (
        diff_stats(store.stats(), stats_before) if store is not None else None
    )
    tsdb_state = tsdb.to_state() if tsdb is not None else None
    return (
        accumulator.to_state(),
        registry_state,
        len(chunk),
        store_delta,
        tsdb_state,
    )


def characterize_fleet(
    n_chips: int,
    *,
    seed: int = 2019,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    trials: int = 4,
    n_cores: int = CORES_PER_CHIP,
    mode: MarginMode = MarginMode.ATM,
    reduction_steps: int = 0,
    noise_sigma_ps: float = 0.1,
    jobs: int = 1,
    progress: ProgressReporter | None = None,
    tsdb: Tsdb | None = None,
) -> FleetReport:
    """Run the Fig. 6 idle → uBench methodology over a sampled fleet.

    Chip ``i`` is ``draw_chip(seed + i, chip_id=f"F{i}")``, characterized
    as a :class:`~repro.core.characterize.Characterizer` seeded
    ``seed + i`` would characterize it (each chunk's cold chips in one
    :func:`characterize_chunk` pass, every chip replayed from its
    record), so the result is a pure function of
    ``seed`` and ``n_chips`` — the chunk size only bounds memory, and
    ``jobs`` only bounds wall-clock: chunks fold through order-invariant
    accumulators (exact sums, integer counts, mergeable streaming
    metrics), so the report and the metric summaries are byte-identical
    across any ``chunk_size`` and ``jobs`` combination.  ``mode`` and
    ``reduction_steps`` configure the *baseline* row each chip is solved
    at (the fine-tuned row always applies the chip's own uBench limits).

    With ``jobs > 1`` under an enabled observability context, worker
    registries merge into the caller's, and per-event streams are not
    captured — worker scheduling would interleave them
    nondeterministically.  ``progress`` (an operator-facing
    :class:`~repro.obs.stream.progress.ProgressReporter`) never touches
    artifacts.

    ``tsdb`` (a :class:`~repro.obs.tsdb.series.Tsdb`) receives per-chip
    ``fleet.*`` series ticked on the global chip index; pool workers fold
    private partial tsdbs back into it, so its state — and any alert
    evaluation over it — is chunking- and pool-invariant too.
    """
    _validate_fleet_args(
        n_chips, chunk_size, trials, n_cores, mode, reduction_steps, noise_sigma_ps
    )
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    obs = get_obs()
    if tsdb is not None and tsdb.seed != seed:
        raise ConfigurationError(
            f"tsdb is keyed on seed {tsdb.seed} but the fleet run uses "
            f"seed {seed}; series from different seeds must not merge"
        )

    accumulator = _FleetAccumulator()
    chunks = _chunks(n_chips, chunk_size)

    if jobs == 1:
        for chunk in chunks:
            _process_chunk(
                accumulator,
                chunk,
                seed=seed,
                trials=trials,
                n_cores=n_cores,
                mode=mode,
                reduction_steps=reduction_steps,
                noise_sigma_ps=noise_sigma_ps,
                obs=obs,
                tsdb=tsdb,
            )
            if progress is not None:
                progress.update(len(chunk))
    else:
        from ..experiments.runner import map_in_pool

        store = get_store()
        store_root = str(store.root) if store is not None else None

        def _on_result(
            result: tuple[dict, dict | None, int, dict | None, dict | None],
        ) -> None:
            if progress is not None:
                progress.update(result[2])

        partials = map_in_pool(
            _characterize_chunk_worker,
            [
                (
                    chunk.start,
                    chunk.stop,
                    seed,
                    trials,
                    n_cores,
                    mode,
                    reduction_steps,
                    noise_sigma_ps,
                    obs.enabled,
                    store_root,
                    tsdb.experiment if tsdb is not None else None,
                    tsdb.window_ticks if tsdb is not None else 0.0,
                )
                for chunk in chunks
            ],
            jobs=jobs,
            on_result=_on_result,
        )
        for (
            accumulator_state,
            registry_state,
            _,
            store_delta,
            tsdb_state,
        ) in partials:
            accumulator.merge_state(accumulator_state)
            if registry_state is not None:
                obs.metrics.merge_state(registry_state)
            if store_delta is not None and store is not None:
                # Fold each worker's store traffic into the parent store's
                # counters so `repro store stats` covers the whole run.
                store.merge_stats(store_delta)
            if tsdb_state is not None and tsdb is not None:
                tsdb.merge_state(tsdb_state)

    return FleetReport(
        n_chips=n_chips,
        n_cores=n_cores,
        chunk_size=chunk_size,
        trials=trials,
        seed=seed,
        mode=mode,
        reduction_steps=reduction_steps,
        idle_limit_counts=accumulator.idle_counts,
        ubench_limit_counts=accumulator.ubench_counts,
        rollback_counts=accumulator.rollback_counts,
        cores_total=accumulator.cores_total,
        cores_rolled_back=accumulator.cores_rolled_back,
        probe_runs=accumulator.probe_runs,
        baseline_freq_min_mhz=accumulator.baseline_stat.minimum,
        baseline_freq_mean_mhz=accumulator.baseline_stat.mean,
        baseline_freq_max_mhz=accumulator.baseline_stat.maximum,
        tuned_freq_min_mhz=accumulator.tuned_stat.minimum,
        tuned_freq_mean_mhz=accumulator.tuned_stat.mean,
        tuned_freq_max_mhz=accumulator.tuned_stat.maximum,
    )


@dataclass(frozen=True)
class ObservedFleetRun:
    """Artifacts of one observed fleet characterization."""

    report: FleetReport
    manifest: RunManifest
    events_path: Path
    manifest_path: Path
    event_count: int


def run_fleet_observed(
    n_chips: int,
    *,
    out_dir: str | Path = "runs",
    seed: int = 2019,
    segment_events: int = 0,
    **kwargs,
) -> ObservedFleetRun:
    """Run :func:`characterize_fleet` under full observability.

    Writes ``fleet.events.jsonl`` plus ``fleet.manifest.json`` into
    ``out_dir`` using the same canonical-artifact conventions as
    :func:`repro.experiments.common.run_observed`: cold solve cache, JSONL
    event stream, manifest with metric summary and event digest — two
    runs with the same arguments produce byte-identical artifacts.

    ``segment_events > 0`` rotates the event stream through a
    :class:`~repro.obs.stream.rotate.RotatingJsonlSink` every that many
    events; the manifest digest covers the logical concatenation, so it
    is byte-identical to the single-file run.
    """
    reset_solve_cache()
    target_dir = Path(out_dir)
    target_dir.mkdir(parents=True, exist_ok=True)
    events_path = target_dir / "fleet.events.jsonl"
    manifest_path = target_dir / "fleet.manifest.json"

    sink: JsonlFileSink | RotatingJsonlSink
    if segment_events > 0:
        sink = RotatingJsonlSink(
            events_path, max_events_per_segment=segment_events
        )
    else:
        sink = JsonlFileSink(events_path)
    obs = Observability(sink, metrics=MetricsRegistry())
    try:
        with observed(obs):
            report = characterize_fleet(n_chips, seed=seed, **kwargs)
        metrics_summary = obs.metrics.to_summary()
    finally:
        obs.close()

    manifest = build_manifest(
        "fleet",
        seed,
        result_metrics=report.metrics(),
        metrics_summary=metrics_summary,
        events_path=(
            sink.index_path if isinstance(sink, RotatingJsonlSink) else events_path
        ),
        event_count=sink.count,
    )
    save_manifest(manifest, manifest_path)
    return ObservedFleetRun(
        report=report,
        manifest=manifest,
        events_path=events_path,
        manifest_path=manifest_path,
        event_count=sink.count,
    )
