"""Metrics history: per-metric time series across registered runs.

Folds the ``metrics_summary`` and ``result_metrics`` of every manifest in
a :class:`~repro.obs.analyze.store.RunStore` into per-metric series (one
point per run, in run-id order), plus ``BENCH_solver.json``-style wall
artifacts into wall-clock series.  Regression flagging reuses the exact
ratio-plus-noise-floor gate of ``repro bench --compare``
(:func:`repro.obs.stream.gates.exceeds_ratio_gate`): a metric is flagged
when its latest point exceeds its first by more than the threshold ratio
*and* the absolute floor.

Headline scalars per instrument kind: a counter contributes its value, a
gauge and a histogram their mean.  ``SpanEvent.wall_s == -1`` is the
"not profiled" sentinel and is excluded from every span statistic
(:func:`span_wall_stats`) — a report must never average a sentinel.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from ...analysis.rendering import ascii_table
from ...errors import ConfigurationError
from ..stream.gates import MIN_REGRESSION_S, exceeds_ratio_gate
from .store import RunStore


@dataclass(frozen=True)
class SeriesPoint:
    """One observation of one metric (labelled by run id / artifact name)."""

    label: str
    value: float


@dataclass(frozen=True)
class MetricSeries:
    """All observations of one metric, in label order of collection."""

    name: str
    #: "counter" | "gauge" | "histogram" | "result" | "wall"
    kind: str
    points: tuple[SeriesPoint, ...]

    @property
    def first(self) -> float:
        if not self.points:
            raise ConfigurationError(f"{self.name}: series is empty")
        return self.points[0].value

    @property
    def latest(self) -> float:
        if not self.points:
            raise ConfigurationError(f"{self.name}: series is empty")
        return self.points[-1].value


@dataclass(frozen=True)
class RegressionFlag:
    """One metric whose latest point trips the ratio gate.

    ``direction`` says which way: ``"regression"`` (latest exceeds first)
    or ``"improvement"`` (first exceeds latest, the same gate with the
    arguments swapped).
    """

    name: str
    kind: str
    baseline: float
    latest: float
    direction: str = "regression"

    @property
    def ratio(self) -> float:
        if self.baseline > 0.0:
            return self.latest / self.baseline
        return float("inf") if self.latest > 0.0 else 0.0

    @property
    def delta(self) -> float:
        """Signed change, latest minus baseline."""
        return self.latest - self.baseline

    def render(self) -> str:
        return (
            f"{self.name} ({self.kind}): {self.baseline:.6g} -> "
            f"{self.latest:.6g} ({self.delta:+.6g}, {self.ratio:.2f}x)"
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "baseline": self.baseline,
            "latest": self.latest,
            "delta": self.delta,
            "direction": self.direction,
        }


def headline_value(entry: dict) -> float | None:
    """The scalar a summary entry contributes to its series (None = skip)."""
    kind = entry.get("kind")
    if kind == "counter":
        return float(entry["value"])
    if kind == "gauge":
        return float(entry["mean"]) if entry.get("samples") else None
    if kind == "histogram":
        return float(entry["mean"]) if entry.get("count") else None
    return None


def build_history(
    store: RunStore,
    *,
    experiment_id: str | None = None,
    metrics: Sequence[str] | None = None,
) -> tuple[MetricSeries, ...]:
    """Fold every registered manifest into per-metric series.

    Result metrics appear as ``result.<name>``; instrument summaries keep
    their registry names.  ``metrics`` filters by exact name after that
    prefixing; ``experiment_id`` restricts which runs contribute.  Points
    are ordered by run id (the registry's only deterministic order).
    """
    wanted = set(metrics) if metrics is not None else None
    series: dict[str, tuple[str, list[SeriesPoint]]] = {}
    for record in store.records():
        if experiment_id is not None and record.experiment_id != experiment_id:
            continue
        manifest = store.load(record.run_id).manifest
        folded: list[tuple[str, str, float]] = [
            (f"result.{name}", "result", float(value))
            for name, value in manifest.result_metrics.items()
        ]
        for name, entry in manifest.metrics_summary.items():
            value = headline_value(entry)
            if value is not None:
                folded.append((name, str(entry.get("kind")), value))
        for name, kind, value in folded:
            if wanted is not None and name not in wanted:
                continue
            slot = series.setdefault(name, (kind, []))
            slot[1].append(SeriesPoint(label=record.run_id, value=value))
    return tuple(
        MetricSeries(name=name, kind=kind, points=tuple(points))
        for name, (kind, points) in sorted(series.items())
    )


def bench_wall_series(paths: Sequence[str | Path]) -> tuple[MetricSeries, ...]:
    """Fold bench artifacts into wall-clock series.

    Each path must be a ``bench_solver/*`` document; its file name is the
    point label.  Produces ``bench.total_wall_s`` plus one
    ``bench.<experiment>.wall_s`` series per experiment the artifacts
    share point(s) for.
    """
    series: dict[str, list[SeriesPoint]] = {}
    for path in paths:
        source = Path(path)
        if not source.exists():
            raise ConfigurationError(f"no bench artifact at {source}")
        try:
            document = json.loads(source.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{source} is not valid JSON: {exc}") from exc
        schema = str(document.get("schema", ""))
        if not schema.startswith("bench_solver/"):
            raise ConfigurationError(
                f"{source} is not a bench artifact (schema {schema!r})"
            )
        label = source.name
        series.setdefault("bench.total_wall_s", []).append(
            SeriesPoint(label=label, value=float(document.get("total_wall_s", 0.0)))
        )
        for entry in document.get("experiments", []):
            name = f"bench.{entry['id']}.wall_s"
            series.setdefault(name, []).append(
                SeriesPoint(label=label, value=float(entry["wall_s"]))
            )
    return tuple(
        MetricSeries(name=name, kind="wall", points=tuple(points))
        for name, points in sorted(series.items())
    )


def _flag(
    series: Sequence[MetricSeries],
    direction: str,
    threshold: float,
    min_delta: float,
    wall_min_delta: float,
) -> tuple[RegressionFlag, ...]:
    flags = []
    for one in series:
        if len(one.points) < 2:
            continue
        floor = wall_min_delta if one.kind == "wall" else min_delta
        fresh, base = one.latest, one.first
        if direction == "improvement":
            fresh, base = base, fresh
        if exceeds_ratio_gate(fresh, base, threshold=threshold, min_delta=floor):
            flags.append(
                RegressionFlag(
                    name=one.name,
                    kind=one.kind,
                    baseline=one.first,
                    latest=one.latest,
                    direction=direction,
                )
            )
    return tuple(flags)


def flag_regressions(
    series: Sequence[MetricSeries],
    *,
    threshold: float = 2.0,
    min_delta: float = 0.0,
    wall_min_delta: float = MIN_REGRESSION_S,
) -> tuple[RegressionFlag, ...]:
    """Flag series whose latest point regresses past their first point.

    "Regression" means *increase*: these series are costs (wall seconds,
    rollback counts, violation counters), so more is worse.  Wall series
    get the bench noise floor; everything else uses ``min_delta``
    (default 0 — counters are exact, there is no scheduling noise to
    forgive).
    """
    return _flag(series, "regression", threshold, min_delta, wall_min_delta)


def flag_improvements(
    series: Sequence[MetricSeries],
    *,
    threshold: float = 2.0,
    min_delta: float = 0.0,
    wall_min_delta: float = MIN_REGRESSION_S,
) -> tuple[RegressionFlag, ...]:
    """Flag series whose latest point *improves* past their first point.

    The exact mirror of :func:`flag_regressions` — the same two-condition
    ratio gate with the arguments swapped, so a drop only counts when the
    first point exceeds the latest by the threshold ratio and the floor.
    Surfacing wins keeps ``repro obs history`` honest in both directions:
    a bench that got 3x faster shows up next to one that got 3x slower.
    """
    return _flag(series, "improvement", threshold, min_delta, wall_min_delta)


def span_wall_stats(documents: Sequence[dict]) -> dict:
    """Wall-clock statistics over a stream's ``SpanEvent`` documents.

    ``wall_s == -1`` is the "not profiled" sentinel (the tracer outside
    profiling mode); it must never enter an aggregate, so only spans with
    ``wall_s >= 0`` contribute to the wall statistics.
    """
    spans = [doc for doc in documents if doc.get("type") == "SpanEvent"]
    profiled = [
        float(doc["wall_s"])
        for doc in spans
        if float(doc.get("wall_s", -1.0)) >= 0.0
    ]
    stats: dict[str, float | int] = {
        "spans": len(spans),
        "profiled": len(profiled),
    }
    if profiled:
        stats["wall_total_s"] = sum(profiled)
        stats["wall_mean_s"] = sum(profiled) / len(profiled)
        stats["wall_max_s"] = max(profiled)
    return stats


def render_history(
    series: Sequence[MetricSeries],
    flags: Sequence[RegressionFlag],
    *,
    improvements: Sequence[RegressionFlag] = (),
    title: str = "metrics history",
    threshold: float = 2.0,
) -> str:
    """Fixed-width history table plus the regression/improvement verdict.

    The delta column is signed and the direction column marks both ways:
    ``REGRESSED`` for cost increases past the gate, ``improved`` for
    drops past the same gate.
    """
    if not series:
        return f"{title}\n(no metric series)"
    flagged = {flag.name for flag in flags}
    improved = {flag.name for flag in improvements}
    rows = []
    for one in series:
        if one.first > 0.0:
            ratio = f"{one.latest / one.first:.2f}x"
        elif one.latest > 0.0:
            ratio = "inf"
        else:
            ratio = "-"
        if one.name in flagged:
            direction = "REGRESSED"
        elif one.name in improved:
            direction = "improved"
        else:
            direction = ""
        rows.append(
            (
                one.name,
                one.kind,
                len(one.points),
                f"{one.first:.6g}",
                f"{one.latest:.6g}",
                f"{one.latest - one.first:+.6g}",
                ratio,
                direction,
            )
        )
    table = ascii_table(
        ("metric", "kind", "n", "first", "latest", "delta", "ratio", "direction"),
        rows,
        title=title,
    )
    verdict = (
        f"{len(flags)} regression(s) past {threshold:.2f}x"
        if flags
        else f"no regressions past {threshold:.2f}x"
    )
    if improvements:
        verdict += f", {len(improvements)} improvement(s)"
    return f"{table}\n{verdict}"


def history_to_dict(
    series: Sequence[MetricSeries],
    flags: Sequence[RegressionFlag],
    improvements: Sequence[RegressionFlag],
    *,
    threshold: float = 2.0,
) -> dict:
    """Canonical JSON document for ``repro obs history --format json``."""
    return {
        "kind": "obs_history",
        "schema": 1,
        "threshold": threshold,
        "series": [
            {
                "name": one.name,
                "kind": one.kind,
                "points": [
                    {"label": point.label, "value": point.value}
                    for point in one.points
                ],
                "first": one.first,
                "latest": one.latest,
                "delta": one.latest - one.first,
            }
            for one in series
        ],
        "regressions": [flag.to_dict() for flag in flags],
        "improvements": [flag.to_dict() for flag in improvements],
    }
