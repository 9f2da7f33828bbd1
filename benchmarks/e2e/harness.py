"""Workloads, checks and metrics of the end-to-end benchmark.

Each workload runs serially in one process (``jobs=1``) as a closed loop
with one client: the next op starts when the previous one returns.  A
run is prepare (derive the inputs from the seed), set-up (repeated,
untimed except for ``setup_s``), then a timed window of whole passes
that ends before the next pass would overrun ``seconds``.  A traced run
repeats the same number of passes with :mod:`spans` taps installed and
reports per-layer self times and counts.

Outputs are checked, not just timed: every op's digests must equal the
committed reference (at the reference seed) and the first observation
of the same op in this run.  A mismatch or an exception is one failed
op; it never stops the run.

The end-to-end times are reported in reference-host seconds: each run
also times a fixed kernel of JSON and sorting work (:class:`HostSpeed`)
every quarter second, and scales each step and set-up by ``REFERENCE_KERNEL_S`` over
the kernel's time around it, which cancels the host's speed drift.  See
README.md for the rationale.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import random
import resource
import shutil
import statistics
import tempfile
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.core import fleet as fleet_mod
from repro.errors import ConfigurationError
from repro.experiments import REGISTRY, run_experiment
from repro.fastpath import store as store_mod
from repro.fastpath.cache import get_solve_cache, reset_solve_cache
from repro.obs import alerts as alerts_mod
from repro.obs.profiling import wall_clock_s
from repro.obs.tsdb import Tsdb, TsdbStore
from repro.silicon.chipspec import draw_chips

from spans import SpanRecorder, Taps

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Seed the committed reference digests were generated at.
REFERENCE_SEED = 2019

#: Paper figures behind ``experiments.headline_err_pp`` (Fig. 14, in %).
PAPER_HEADLINE_PCT = {
    "avg_default_atm_pct": 6.1,
    "avg_unmanaged_finetuned_pct": 10.2,
    "avg_managed_max_pct": 15.2,
}

#: Fig. 14 bands every suite pass must stay inside, as asserted by
#: ``tests/experiments/test_experiments.py`` (``test_magnitudes_near_paper``).
HEADLINE_BANDS = {
    "avg_default_atm_pct": (4.0, 8.0),
    "avg_unmanaged_finetuned_pct": (8.0, 12.5),
    "avg_managed_max_pct": (11.0, 17.0),
}

#: ``repro fleet characterize --alert-window`` default.
ALERT_WINDOW_TICKS = 64.0

#: Fixed inputs of the host-speed kernel (about 8 ms per run): a nested
#: document for a JSON round trip and rows to sort.  Dict, string, float
#: and list work slows with the host like the program does; a bare integer
#: loop tracked it worse (README.md).
_KERNEL_RNG = random.Random(7)
KERNEL_DOCUMENT = {
    f"k{i}": {
        "a": [_KERNEL_RNG.random() for _ in range(8)],
        "b": str(i) * 3,
        "c": {"x": i, "y": [i, i + 1]},
    }
    for i in range(250)
}
KERNEL_ROWS = [(_KERNEL_RNG.random(), i, str(i)) for i in range(10_000)]

#: Median seconds of one kernel run on the host that defines the scale of
#: the end-to-end times (a 2-vCPU virtual machine).  Only the scale
#: depends on it; changing it rescales every result.
REFERENCE_KERNEL_S = 0.008

#: Least wall time between two kernel runs inside a pass.
KERNEL_EVERY_S = 0.25

#: Kernel runs, nearest in time, that scale one step or set-up.
KERNEL_NEAREST = 3


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None


#: End-to-end metrics, printed by every untraced run of every workload;
#: the times are in reference-host seconds (module docstring).
E2E_METRICS = (
    Metric("setup_s", "s", "lower", 0.1),
    Metric("pass_s_p50", "s", "lower", 0.1),
    Metric("step_s_gmean", "s", "lower", 0.1),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
)


def _layer(name: str, unit: str = "s", better: str = "lower") -> Metric:
    return Metric(name, unit, better)


#: Per-layer metrics, printed by every traced run of every workload (an
#: idle layer reports 0).
LAYER_METRICS = (
    *(_layer(f"experiments.{experiment_id}_s") for experiment_id in REGISTRY),
    _layer("experiments.headline_err_pp", "pp"),
    _layer("experiments.table1_match_rate", "ratio", "higher"),
    _layer("characterize.idle_s"),
    _layer("characterize.ubench_s"),
    _layer("characterize.app_s"),
    _layer("characterize.calls", "count"),
    _layer("characterize.probes", "count"),
    _layer("atm.transient_s"),
    _layer("atm.transient_calls", "count"),
    _layer("chip_sim.solve_many_s"),
    _layer("chip_sim.solve_many_calls", "count"),
    _layer("silicon.draw_s"),
    _layer("silicon.draws", "count"),
    _layer("compiled.compile_s"),
    _layer("compiled.fingerprint_s"),
    _layer("compiled.compiles", "count"),
    _layer("population.solve_cached_s"),
    _layer("population.solve_s"),
    _layer("solver.solve_s"),
    _layer("population.rows", "count"),
    _layer("cache.hits", "count", "higher"),
    _layer("cache.misses", "count"),
    _layer("cache.evictions", "count"),
    _layer("cache.hit_rate", "ratio", "higher"),
    _layer("store.open_s"),
    _layer("store.get_s"),
    _layer("store.put_s"),
    _layer("store.calls", "count"),
    _layer("store.hits", "count", "higher"),
    _layer("store.misses", "count"),
    _layer("store.writes", "count"),
    _layer("store.corrupt", "count"),
    _layer("store.hit_rate", "ratio", "higher"),
    _layer("store.bytes", "B"),
    _layer("char_record.key_s"),
    _layer("char_record.replay_s"),
    _layer("char_record.encode_s"),
    _layer("char_record.replays", "count"),
    _layer("obs.emit_s"),
    _layer("obs.events", "count"),
    _layer("obs.event_bytes", "B"),
    _layer("obs.manifest_s"),
    _layer("tsdb.record_s"),
    _layer("tsdb.samples", "count"),
    _layer("tsdb.write_s"),
    _layer("alerts.eval_s"),
    _layer("alerts.fired", "count"),
    _layer("fleet.self_s"),
    _layer("fleet.chunk_s_p90"),
    _layer("fleet.chunks", "count"),
    _layer("harness.self_s"),
    _layer("host.kernel_s"),
    _layer("trace.overhead_frac", "ratio"),
)

#: Counts a traced run must find at zero, per workload (the layers the
#: workload is predicted to bypass).
ZERO_WORK = {
    "suite": ("store.calls", "obs.events"),
    "fleet_cold": ("store.calls", "obs.events", "cache.hits"),
    "fleet_warm": (
        "characterize.calls", "population.rows", "obs.events", "store.misses",
    ),
    "fleet_full": (),
}


@dataclass(frozen=True)
class Sizes:
    """Op sizes; the defaults are the benchmark, tests pass smaller ones."""

    experiments: tuple[str, ...] = tuple(REGISTRY)
    cold_chips: int = 2560
    warm_chips: int = 512
    full_chips: int = 1280
    warmup_chips: int = 64
    setup_repeats: int = 3


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_sha256(document) -> str:
    return sha256_text(json.dumps(document, sort_keys=True, separators=(",", ":")))


def physical_fleet_seed(seed: int, n_chips: int) -> int:
    """First fleet seed at or after ``seed`` whose chips all draw physical.

    About one fleet chip draw in 15 000 is non-physical and makes
    ``characterize_fleet`` raise, so the inputs are drawn by rejection:
    the same seed always yields the same fleet.
    """
    candidate = seed
    while True:
        try:
            draw_chips(candidate, range(n_chips))
            return candidate
        except ConfigurationError:
            candidate += 1


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class SetupError(RuntimeError):
    """A set-up step failed, so the run has no baseline to measure."""


@dataclass
class Tally:
    """What one window of ops did: outcomes, timings and public counters."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    passes: int = 0
    wall_s: float = 0.0
    pass_s: list[float] = field(default_factory=list)
    #: Index into ``steps`` of each pass's first step.
    pass_first_step: list[int] = field(default_factory=list)
    #: (midpoint, seconds) of every step: one experiment, or one fleet chunk.
    steps: list[tuple[float, float]] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    digests: dict[str, dict] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)


def _kernel() -> tuple:
    json.loads(json.dumps(KERNEL_DOCUMENT, sort_keys=True))
    return sorted(KERNEL_ROWS)[0]


class HostSpeed:
    """Times a fixed kernel to track the host's speed.

    On a shared host the cores slow down by up to 2x for tens of seconds
    at a time.  The kernel slows with them, so a wall time multiplied by
    ``REFERENCE_KERNEL_S / kernel time`` nearby stays steady.  The kernel
    is not repro code, so no change to the program can move it.
    ``spent_s`` lets callers take kernel time out of their own timings.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.times: list[float] = []  # midpoint of each kernel run
        self.spent_s = 0.0
        self._last = -math.inf

    def sample(self) -> None:
        start = wall_clock_s()
        _kernel()
        end = wall_clock_s()
        self.samples.append(end - start)
        self.times.append((start + end) / 2)
        self.spent_s += end - start
        self._last = end

    def sample_if_due(self) -> None:
        if wall_clock_s() - self._last >= KERNEL_EVERY_S:
            self.sample()

    def kernel_s(self) -> float:
        return statistics.median(self.samples)

    def factor_at(self, when: float) -> float:
        """Reference-host seconds per second here, around time ``when``."""
        at = bisect.bisect_left(self.times, when)
        window = range(
            max(0, at - KERNEL_NEAREST), min(len(self.times), at + KERNEL_NEAREST)
        )
        nearest = sorted(window, key=lambda i: abs(self.times[i] - when))
        return REFERENCE_KERNEL_S / statistics.median(
            self.samples[i] for i in nearest[:KERNEL_NEAREST]
        )

    def scale(self, timings: list[tuple[float, float]]) -> list[float]:
        """``(midpoint, seconds)`` timings in reference-host seconds."""
        return [seconds * self.factor_at(when) for when, seconds in timings]


def _net_s(speed: HostSpeed | None, fn: Callable[[], None]) -> float:
    """Wall seconds of ``fn()`` minus the kernel runs made inside it."""
    spent = speed.spent_s if speed is not None else 0.0
    start = wall_clock_s()
    fn()
    elapsed = wall_clock_s() - start
    return elapsed - (speed.spent_s - spent if speed is not None else 0.0)


class ChunkClock:
    """Duck-typed ``progress`` for ``characterize_fleet``: times each chunk.

    Records ``(midpoint, seconds)`` per chunk.  Between chunks it runs the
    host-speed kernel when one is due; that time is left out of the next
    chunk.
    """

    def __init__(self, sink: list[tuple[float, float]], speed: HostSpeed | None):
        self._sink = sink
        self._speed = speed
        self._last = wall_clock_s()

    def update(self, _chips: int) -> None:
        now = wall_clock_s()
        self._sink.append(((self._last + now) / 2, now - self._last))
        if self._speed is not None:
            self._speed.sample_if_due()
        self._last = wall_clock_s()


class Workload:
    """One named workload; subclasses define set-up and a timed pass."""

    name = ""

    def __init__(self, *, seed: int, sizes: Sizes, reference: dict | None,
                 work_root: Path):
        self.seed = seed
        self.sizes = sizes
        self.work_root = Path(work_root)
        self.expected: dict[str, dict] = {}
        if reference is not None and reference.get("seed") == seed:
            for key, digests in reference.get(self.name, {}).items():
                self.expected[key] = dict(digests)
        self._recorder: SpanRecorder | None = None
        #: Host-speed probe of the untraced phases (``None`` when traced).
        self.speed: HostSpeed | None = None

    # -- lifecycle -----------------------------------------------------------

    def prepare(self) -> None:
        """Derive the inputs from the seed (untimed)."""

    def setup(self, tally: Tally) -> None:
        raise NotImplementedError

    def run_pass(self, tally: Tally) -> None:
        raise NotImplementedError

    def after_pass(self) -> None:
        """Harness clean-up between passes (outside pass timing)."""

    def close(self) -> None:
        """Release every resource the workload holds."""

    # -- ops -------------------------------------------------------------------

    def _op(
        self,
        tally: Tally,
        key: str,
        span: str,
        body: Callable[[], dict],
        *,
        check: bool = True,
        verify: Callable[[], list[str]] | None = None,
    ) -> tuple[float, float]:
        """Run one op; returns its ``(midpoint, wall seconds)``.

        ``body`` returns the op's digests.  With ``check`` they must equal
        the expected digests (reference, else first observation); without
        it they only seed the expectation (set-up ops).
        """
        tally.attempted += 1
        recorder = self._recorder
        start = wall_clock_s()
        try:
            if recorder is None:
                digests = body()
            else:
                recorder.op = tally.attempted
                with recorder.span(span):
                    digests = body()
        except Exception as exc:  # a failed op is counted, never fatal
            tally.failed += 1
            tally.failures.append(f"{key}: {type(exc).__name__}: {exc}")
            elapsed = wall_clock_s() - start
            return start + elapsed / 2, elapsed
        elapsed = wall_clock_s() - start
        expected = self.expected.setdefault(key, {})
        for name, value in digests.items():
            expected.setdefault(name, value)
        problems = []
        if check:
            problems = [
                f"{name} {digests.get(name)} != expected {value}"
                for name, value in sorted(expected.items())
                if digests.get(name) != value
            ]
            if verify is not None:
                problems.extend(verify())
        tally.digests[key] = digests
        if problems:
            tally.failed += 1
            tally.failures.append(f"{key}: " + "; ".join(problems))
        return start + elapsed / 2, elapsed

    def _record_cache(self, tally: Tally) -> None:
        stats = get_solve_cache().stats()
        for name in ("hits", "misses", "evictions"):
            tally.counts[f"cache.{name}"] += stats[name]

    def _record_store(self, tally: Tally, store) -> None:
        stats = store.stats()
        tally.counts["store.hits"] += stats["hits"]
        tally.counts["store.misses"] += stats["misses"]
        tally.counts["store.writes"] += stats["writes"]
        tally.counts["store.corrupt"] += stats["corrupt_entries"]
        tally.counts["store.bytes"] += store.dat_path.stat().st_size

    def _fleet_op(self, tally: Tally, key: str, n_chips: int, seed: int,
                  *, check: bool = True) -> None:
        """One ``characterize_fleet`` call, cache cold, chunks timed."""
        reset_solve_cache()
        chunks: list[tuple[float, float]] = []

        def body() -> dict:
            report = fleet_mod.characterize_fleet(
                n_chips, seed=seed, progress=ChunkClock(chunks, self.speed)
            )
            return {"chips": n_chips, "fleet_seed": seed,
                    "report": canonical_sha256(report.to_dict())}

        step = self._op(tally, key, "harness.self", body, check=check)
        self._record_chunks(tally, chunks, step)

    def _record_chunks(self, tally: Tally, chunks: list[tuple[float, float]],
                       op_step: tuple[float, float]) -> None:
        """A fleet op's steps are its chunks; the cache was reset before it.

        An op that failed before its first chunk ended is one step of its
        own length, so every pass has a step to scale.
        """
        self._record_cache(tally)
        tally.steps.extend(chunks or [op_step])
        tally.counts["fleet.chunks"] += len(chunks)


class SuiteWorkload(Workload):
    """Serial ``repro experiment all``: every registry experiment, rendered."""

    name = "suite"

    def _pass(self, tally: Tally, *, check: bool) -> None:
        reset_solve_cache()
        results = {}
        for experiment_id in self.sizes.experiments:

            def body(experiment_id=experiment_id) -> dict:
                result = run_experiment(experiment_id, seed=self.seed)
                results[experiment_id] = result
                return {"render": sha256_text(result.render())}

            verify = None
            if experiment_id == "fig14":
                verify = lambda: self._check_bands(results["fig14"].metrics)  # noqa: E731
            tally.steps.append(
                self._op(
                    tally,
                    experiment_id,
                    f"experiments.{experiment_id}",
                    body,
                    check=check,
                    verify=verify,
                )
            )
            if self.speed is not None:
                self.speed.sample_if_due()
        self._record_cache(tally)
        if "fig14" in results:
            metrics = results["fig14"].metrics
            tally.values["experiments.headline_err_pp"] = sum(
                abs(metrics[name] - paper) for name, paper in PAPER_HEADLINE_PCT.items()
            )
        if "table1" in results:
            tally.values["experiments.table1_match_rate"] = results[
                "table1"
            ].metrics["match_rate"]

    @staticmethod
    def _check_bands(metrics: dict) -> list[str]:
        return [
            f"{name} {metrics[name]:.3f} outside ({low}, {high})"
            for name, (low, high) in HEADLINE_BANDS.items()
            if not low < metrics[name] < high
        ]

    def setup(self, tally: Tally) -> None:
        self._pass(tally, check=False)

    def run_pass(self, tally: Tally) -> None:
        self._pass(tally, check=True)


class FleetColdWorkload(Workload):
    """``repro fleet characterize`` with no store: cache reset, LRU evicting."""

    name = "fleet_cold"

    def prepare(self) -> None:
        self.fleet_seed = physical_fleet_seed(self.seed, self.sizes.cold_chips)
        self.warmup_seed = physical_fleet_seed(
            self.seed + 1_000_000, self.sizes.warmup_chips
        )

    def setup(self, tally: Tally) -> None:
        self._fleet_op(tally, "warmup", self.sizes.warmup_chips,
                       self.warmup_seed, check=False)

    def run_pass(self, tally: Tally) -> None:
        self._fleet_op(tally, "fleet", self.sizes.cold_chips, self.fleet_seed)


class FleetWarmWorkload(Workload):
    """Warm reruns over a solve store filled at set-up (the read side)."""

    name = "fleet_warm"
    store_dir: Path | None = None

    def prepare(self) -> None:
        self.fleet_seed = physical_fleet_seed(self.seed, self.sizes.warm_chips)

    def setup(self, tally: Tally) -> None:
        self.close()
        self.store_dir = Path(
            tempfile.mkdtemp(prefix="fleet_warm-", dir=self.work_root)
        )
        store_mod.configure_store(self.store_dir)
        try:
            self._fleet_op(tally, "fleet", self.sizes.warm_chips,
                           self.fleet_seed, check=False)
        finally:
            store_mod.reset_store()

    def run_pass(self, tally: Tally) -> None:
        store_mod.reset_store()
        store = store_mod.configure_store(self.store_dir)
        try:
            self._fleet_op(tally, "fleet", self.sizes.warm_chips,
                           self.fleet_seed)
            self._record_store(tally, store)
        finally:
            store_mod.reset_store()

    def close(self) -> None:
        store_mod.reset_store()
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)
            self.store_dir = None


class FleetFullWorkload(Workload):
    """``fleet characterize --out --solve-store --tsdb --alerts default``."""

    name = "fleet_full"
    #: Artifact directory of the last op, removed between passes.
    op_dir: Path | None = None

    def prepare(self) -> None:
        self.fleet_seed = physical_fleet_seed(self.seed, self.sizes.full_chips)
        self.warmup_seed = physical_fleet_seed(
            self.seed + 1_000_000, self.sizes.warmup_chips
        )

    def _full_op(self, tally: Tally, key: str, n_chips: int, seed: int,
                 *, check: bool = True) -> None:
        reset_solve_cache()
        root = self.op_dir = Path(
            tempfile.mkdtemp(prefix="fleet_full-", dir=self.work_root)
        )
        chunks: list[tuple[float, float]] = []
        artifacts = {}

        def body() -> dict:
            store = store_mod.configure_store(root / "store")
            tsdb = Tsdb("fleet", seed, window_ticks=ALERT_WINDOW_TICKS)
            run = fleet_mod.run_fleet_observed(
                n_chips, out_dir=root / "out", seed=seed, tsdb=tsdb,
                progress=ChunkClock(chunks, self.speed),
            )
            TsdbStore(root / "tsdb").write(tsdb)
            outcome = alerts_mod.evaluate_rules(tsdb, alerts_mod.default_rule_pack())
            artifacts.update(store=store, run=run, tsdb=tsdb, outcome=outcome)
            return {
                "chips": n_chips,
                "fleet_seed": seed,
                "report": canonical_sha256(run.report.to_dict()),
                "events": run.manifest.events_sha256,
                "alerts": sha256_text(outcome.to_json()),
                "tsdb": canonical_sha256(tsdb.to_state()),
            }

        try:
            step = self._op(tally, key, "harness.self", body, check=check)
            if artifacts:
                run = artifacts["run"]
                tsdb = artifacts["tsdb"]
                self._record_store(tally, artifacts["store"])
                tally.counts["obs.events_written"] += run.event_count
                tally.counts["obs.event_bytes"] += run.events_path.stat().st_size
                tally.counts["tsdb.samples"] += sum(
                    tsdb.series(metric).sample_count for metric in tsdb.metrics()
                )
                tally.counts["alerts.fired"] += len(artifacts["outcome"].alerts)
        finally:
            store_mod.reset_store()
        self._record_chunks(tally, chunks, step)

    def setup(self, tally: Tally) -> None:
        self._full_op(tally, "warmup", self.sizes.warmup_chips,
                      self.warmup_seed, check=False)

    def run_pass(self, tally: Tally) -> None:
        self._full_op(tally, "fleet", self.sizes.full_chips, self.fleet_seed)

    def after_pass(self) -> None:
        if self.op_dir is not None:
            shutil.rmtree(self.op_dir, ignore_errors=True)
            self.op_dir = None

    def close(self) -> None:
        store_mod.reset_store()
        self.after_pass()


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (SuiteWorkload, FleetColdWorkload, FleetWarmWorkload,
                FleetFullWorkload)
}


def _window(workload: Workload, tally: Tally, run: Callable[[Tally], None], *,
            seconds: float | None = None, passes: int | None = None) -> None:
    """Timed passes of ``run``: exactly ``passes``, or as many as fit in
    ``seconds``.

    The window stops before a pass that, at the last pass's length, would
    end past ``seconds``; it always runs at least one pass.  Clean-up and
    kernel runs are not window time.  Set-ups are timed the same way, with
    ``run=workload.setup``.
    """
    speed = workload.speed
    while True:
        tally.pass_first_step.append(len(tally.steps))
        elapsed = _net_s(speed, lambda: run(tally))
        tally.pass_s.append(elapsed)
        tally.passes += 1
        tally.wall_s += elapsed
        workload.after_pass()
        if speed is not None:
            speed.sample()
        if passes is not None:
            if tally.passes >= passes:
                break
        elif tally.wall_s + elapsed > seconds:
            break


def _scaled_passes(tally: Tally, steps: list[float]) -> list[float]:
    """Each pass scaled like the steps it is made of."""
    bounds = [*tally.pass_first_step, len(tally.steps)]
    return [
        elapsed * sum(steps[first:end]) / sum(s for _, s in tally.steps[first:end])
        for elapsed, first, end in zip(tally.pass_s, bounds, bounds[1:])
    ]


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """One run's result: the printed JSON plus the detail behind it."""

    workload: str
    seed: int
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    failures: list[str]
    problems: list[str]
    plain: Tally
    traced: Tally | None = None
    #: Untraced end-to-end times in this host's seconds, before scaling.
    raw: dict[str, float] = field(default_factory=dict)

    def to_result(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


def _layer_values(plain: Tally, traced: Tally, recorder: SpanRecorder,
                  speed: HostSpeed) -> dict[str, float]:
    # A time metric ``<span>_s`` is the summed self time of that span.
    values = {
        metric.name: recorder.self_time(metric.name[: -len("_s")])
        for metric in LAYER_METRICS
        if metric.name.endswith("_s")
    }
    counts = traced.counts + recorder.counts
    for metric in LAYER_METRICS:
        if metric.unit in ("count", "B"):
            values[metric.name] = float(counts[metric.name])
    for layer in ("cache", "store"):
        lookups = counts[f"{layer}.hits"] + counts[f"{layer}.misses"]
        values[f"{layer}.hit_rate"] = (
            counts[f"{layer}.hits"] / lookups if lookups else 0.0
        )
    for name in ("experiments.headline_err_pp", "experiments.table1_match_rate"):
        values[name] = traced.values.get(name, 0.0)
    chunks = [s for _, s in plain.steps] if plain.counts["fleet.chunks"] else []
    values["fleet.chunk_s_p90"] = percentile(chunks, 0.90)
    values["host.kernel_s"] = speed.kernel_s()
    values["trace.overhead_frac"] = traced.wall_s / plain.wall_s
    return values


def _trace_problems(workload: str, plain: Tally, traced: Tally,
                    values: dict[str, float]) -> list[str]:
    problems = []
    if traced.counts != plain.counts:
        problems.append(
            f"tracing changed public counters: {dict(plain.counts)} -> "
            f"{dict(traced.counts)}"
        )
    if traced.values != plain.values:
        problems.append("tracing changed result values")
    for key, digests in plain.digests.items():
        if traced.digests.get(key) != digests:
            problems.append(f"{key}: traced digests differ from untraced")
    for name in ZERO_WORK[workload]:
        if values[name] != 0:
            problems.append(f"zero-work prediction failed: {name} = {values[name]:g}")
    if values["obs.events"] != traced.counts["obs.events_written"]:
        problems.append(
            f"obs.events {values['obs.events']:g} != events written "
            f"{traced.counts['obs.events_written']}"
        )
    return problems


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool = False,
    sizes: Sizes = Sizes(),
    reference: dict | None = None,
    work_root: str | Path,
    spans_path: str | Path | None = None,
) -> Outcome:
    """Prepare, set up, measure (and optionally trace) one workload."""
    if name not in WORKLOADS:
        raise ConfigurationError(
            f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}"
        )
    work_root = Path(work_root)
    work_root.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](
        seed=seed, sizes=sizes, reference=reference, work_root=work_root
    )
    speed = workload.speed = HostSpeed()
    try:
        workload.prepare()
        setups = Tally()
        _window(workload, setups, workload.setup, passes=sizes.setup_repeats)
        if setups.failed:
            raise SetupError("; ".join(setups.failures))
        plain = Tally()
        _window(workload, plain, workload.run_pass, seconds=seconds)
        if not trace:
            raw_steps = [s for _, s in plain.steps]
            steps = speed.scale(plain.steps)
            raw = {
                "setup_s": statistics.median(setups.pass_s),
                "pass_s_p50": statistics.median(plain.pass_s),
                "step_s_gmean": statistics.geometric_mean(raw_steps),
            }
            values = {
                "setup_s": statistics.median(
                    _scaled_passes(setups, speed.scale(setups.steps))
                ),
                "pass_s_p50": statistics.median(_scaled_passes(plain, steps)),
                "step_s_gmean": statistics.geometric_mean(steps),
                "peak_rss_mb": peak_rss_mb(),
            }
            metrics = {m.name: (values[m.name], m.unit) for m in E2E_METRICS}
            return Outcome(
                name, seed, plain.failed == 0, plain.attempted,
                plain.failed, metrics, plain.failures, [], plain, raw=raw,
            )
        recorder = SpanRecorder()
        traced = Tally()
        workload.speed = None
        workload._recorder = recorder
        try:
            with Taps(recorder):
                _window(workload, traced, workload.run_pass, passes=plain.passes)
        finally:
            workload._recorder = None
        values = _layer_values(plain, traced, recorder, speed)
        problems = _trace_problems(name, plain, traced, values)
        if spans_path is not None:
            recorder.write(spans_path)
        metrics = {m.name: (values[m.name], m.unit) for m in LAYER_METRICS}
        failed = plain.failed + traced.failed
        return Outcome(
            name, seed, failed == 0 and not problems,
            plain.attempted + traced.attempted, failed, metrics,
            plain.failures + traced.failures, problems, plain, traced,
        )
    finally:
        workload.close()


def load_reference() -> dict | None:
    if not REFERENCE_PATH.exists():
        return None
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def build_reference(*, seed: int = REFERENCE_SEED, sizes: Sizes = Sizes(),
                    work_root: str | Path) -> dict:
    """Digests of one checked pass of every workload at ``seed``."""
    reference: dict = {"seed": seed}
    for name in WORKLOADS:
        outcome = run_workload(
            name, seed=seed, seconds=0.0,
            sizes=replace(sizes, setup_repeats=1),
            reference=None, work_root=work_root,
        )
        if not outcome.correct:
            raise SetupError(f"{name}: " + "; ".join(outcome.failures))
        reference[name] = outcome.plain.digests
    return reference
