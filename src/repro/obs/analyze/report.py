"""Deterministic regression-report rendering (``repro obs report``).

Assembles one digest document over a :class:`~repro.obs.analyze.store.RunStore`
— registry contents, per-metric history with regression flags, span
profiles (sentinel-aware), optional bench wall series and fleet health —
and renders it as canonical JSON or markdown.  Byte-identical across
repeated invocations at the same inputs: run ids and file names only, no
wall clock, no hostnames, no absolute paths.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from ..stream.gates import check_ratio_gate
from .history import (
    MetricSeries,
    RegressionFlag,
    bench_wall_series,
    build_history,
    flag_improvements,
    flag_regressions,
    span_wall_stats,
)
from .store import RunStore

#: Report document schema version.
REPORT_SCHEMA = 1


@dataclass(frozen=True)
class ObsReport:
    """The assembled digest (document + the pieces it was built from)."""

    document: dict
    series: tuple[MetricSeries, ...]
    flags: tuple[RegressionFlag, ...]
    improvements: tuple[RegressionFlag, ...] = ()


def build_report(
    store: RunStore,
    *,
    threshold: float = 2.0,
    bench_paths: Sequence[str | Path] = (),
    fleet_health: dict | None = None,
    metrics: Sequence[str] | None = None,
) -> ObsReport:
    """Assemble the digest document over every registered run.

    ``fleet_health`` is a fleet-health document
    (:meth:`repro.core.fleet_health.FleetHealthReport.to_dict`), embedded
    as given.
    """
    check_ratio_gate(threshold)
    records = store.records()
    series = list(build_history(store, metrics=metrics))
    series.extend(bench_wall_series(bench_paths))
    flags = flag_regressions(series, threshold=threshold)
    improvements = flag_improvements(series, threshold=threshold)

    spans = {}
    for record in records:
        loaded = store.load(record.run_id)
        stats = span_wall_stats(loaded.documents)
        stats = {
            key: (round(value, 6) if isinstance(value, float) else value)
            for key, value in stats.items()
        }
        if loaded.skipped_lines:
            stats["skipped_lines"] = loaded.skipped_lines
        spans[record.run_id] = stats

    document: dict = {
        "kind": "obs_report",
        "schema": REPORT_SCHEMA,
        "threshold": round(threshold, 6),
        "runs": [record.to_dict() for record in records],
        "history": {
            one.name: {
                "kind": one.kind,
                "points": [
                    {"label": point.label, "value": round(point.value, 6)}
                    for point in one.points
                ],
            }
            for one in series
        },
        "regressions": [
            {
                "name": flag.name,
                "kind": flag.kind,
                "baseline": round(flag.baseline, 6),
                "latest": round(flag.latest, 6),
                "delta": round(flag.delta, 6),
                "direction": flag.direction,
            }
            for flag in flags
        ],
        "improvements": [
            {
                "name": flag.name,
                "kind": flag.kind,
                "baseline": round(flag.baseline, 6),
                "latest": round(flag.latest, 6),
                "delta": round(flag.delta, 6),
                "direction": flag.direction,
            }
            for flag in improvements
        ],
        "spans": spans,
    }
    if fleet_health is not None:
        document["fleet_health"] = fleet_health
    return ObsReport(
        document=document,
        series=tuple(series),
        flags=tuple(flags),
        improvements=tuple(improvements),
    )


def render_json(report: ObsReport) -> str:
    """Canonical JSON form (sorted keys, trailing newline)."""
    return json.dumps(report.document, sort_keys=True, indent=2) + "\n"


def render_markdown(report: ObsReport) -> str:
    """Markdown digest of the report document."""
    doc = report.document
    lines = ["# repro.obs report", ""]

    runs = doc["runs"]
    lines.append(f"## Run registry ({len(runs)} run(s))")
    lines.append("")
    if runs:
        lines.append("| run | experiment | seed | events | sha256 | skipped |")
        lines.append("|---|---|---:|---:|---|---:|")
        for run in runs:
            lines.append(
                f"| {run['run_id']} | {run['experiment_id']} | {run['seed']} "
                f"| {run['event_count']} | `{run['events_sha256'][:12]}` "
                f"| {run['skipped_lines']} |"
            )
    else:
        lines.append("(no runs registered)")
    truncated = [run["run_id"] for run in runs if run["skipped_lines"]]
    if truncated:
        lines.append("")
        lines.append(
            f"**warning**: {len(truncated)} run(s) with truncated trailing "
            "lines (tolerant read): " + ", ".join(truncated)
        )
    lines.append("")

    lines.append("## Metrics history")
    lines.append("")
    if report.series:
        lines.append("| metric | kind | n | first | latest |")
        lines.append("|---|---|---:|---:|---:|")
        for one in report.series:
            lines.append(
                f"| {one.name} | {one.kind} | {len(one.points)} "
                f"| {one.first:.6g} | {one.latest:.6g} |"
            )
    else:
        lines.append("(no metric series)")
    lines.append("")

    lines.append(f"## Regressions (threshold {doc['threshold']:.2f}x)")
    lines.append("")
    if report.flags:
        for flag in report.flags:
            lines.append(f"- **{flag.name}**: {flag.render()}")
    else:
        lines.append("none")
    lines.append("")

    lines.append(f"## Improvements (threshold {doc['threshold']:.2f}x)")
    lines.append("")
    if report.improvements:
        for flag in report.improvements:
            lines.append(f"- **{flag.name}**: {flag.render()}")
    else:
        lines.append("none")
    lines.append("")

    lines.append("## Span profile")
    lines.append("")
    spans = doc["spans"]
    if spans:
        lines.append("| run | spans | profiled | wall total (s) |")
        lines.append("|---|---:|---:|---:|")
        for run_id in sorted(spans):
            stats = spans[run_id]
            wall = stats.get("wall_total_s")
            wall_text = f"{wall:.6g}" if wall is not None else "—"
            lines.append(
                f"| {run_id} | {stats['spans']} | {stats['profiled']} "
                f"| {wall_text} |"
            )
    else:
        lines.append("(no runs)")
    lines.append("")

    if "fleet_health" in doc:
        health = doc["fleet_health"]
        lines.append("## Fleet health")
        lines.append("")
        lines.append(
            f"{health['n_chips']} chips x {health['n_cores']} cores, "
            f"fence k={health['fence_k']:g}"
        )
        lines.append("")
        outliers = health["outliers"]
        if outliers:
            lines.append(f"outliers ({len(outliers)}): " + ", ".join(outliers))
        else:
            lines.append("outliers: none")
        lines.append("")
    return "\n".join(lines)
