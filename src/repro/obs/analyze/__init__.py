"""The read side of ``repro.obs``: analytics over recorded runs.

Everything under ``obs.analyze`` *consumes* the deterministic artifacts
the write side produces (JSONL event streams, run manifests, fleet
aggregates) and never touches simulation state:

``store``
    :class:`RunStore`, the on-disk run registry — index observed runs by
    manifest (seed, limit-table fingerprint, events sha256) with
    put/load/prune and a canonical ``index.json``.
``diff``
    First-divergence diffing of two event streams plus a manifest differ
    that classifies a mismatch as seed, fingerprint, schema, or stream
    drift — the regression oracle behind ``repro obs diff`` and the
    golden tests' failure pinpointing.
``history``
    Per-metric time series folded from registered manifests and
    ``BENCH_solver.json``-style wall artifacts, with the same
    ratio-plus-noise-floor regression gate as ``repro bench --compare``.
``fleet_health``
    Outlier-chip triage over per-chip characterization limits using
    nearest-rank quantile fences (the Fig. 7 distributions, read as a
    fleet health surface).
``report``
    Deterministic markdown/JSON digests over all of the above.

Like the write side, every output here is byte-identical across
same-seed invocations: no wall clock, no hostnames, no absolute paths.
"""

from .diff import (
    Divergence,
    FieldDelta,
    ManifestDiff,
    StreamDiff,
    diff_documents,
    diff_manifests,
    diff_streams,
)
from .fleet_health import ChipHealth, FleetHealthReport, assess_fleet
from .history import (
    MetricSeries,
    RegressionFlag,
    SeriesPoint,
    bench_wall_series,
    build_history,
    flag_improvements,
    flag_regressions,
    history_to_dict,
    render_history,
    span_wall_stats,
)
from .report import build_report, render_markdown
from .store import LoadedRun, RunRecord, RunStore

__all__ = [
    "Divergence",
    "FieldDelta",
    "ManifestDiff",
    "StreamDiff",
    "diff_documents",
    "diff_manifests",
    "diff_streams",
    "ChipHealth",
    "FleetHealthReport",
    "assess_fleet",
    "MetricSeries",
    "RegressionFlag",
    "SeriesPoint",
    "bench_wall_series",
    "build_history",
    "flag_improvements",
    "flag_regressions",
    "history_to_dict",
    "render_history",
    "span_wall_stats",
    "build_report",
    "render_markdown",
    "LoadedRun",
    "RunRecord",
    "RunStore",
]
