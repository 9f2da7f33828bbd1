"""Feeding a tsdb: event documents, JSONL streams, manifest summaries.

Two ingest paths, both deterministic:

* :func:`capture_documents` / :func:`capture_stream` — the replay path.
  Event documents become per-type occurrence series (``events.<Type>``)
  plus value series for the numeric fields worth alerting on (CPM slack,
  guardband deficit, drift residual, rollback depth), ticked on the
  event's ``seq``.
* :func:`capture_summary` — the manifest path, for runs where only the
  metrics summary survived.

:func:`capture_stream` reads through the tolerant JSONL loader, so a
truncated final segment of a rotated stream is a *counted* warning
(returned as ``skipped``), never a crash.
"""

from __future__ import annotations

from pathlib import Path

from ..sinks import read_jsonl_documents
from .series import Tsdb

#: Prefix of the per-event-type occurrence series.
EVENT_METRIC_PREFIX = "events."

#: Numeric event fields folded into value series, per event type.
EVENT_VALUE_METRICS = {
    "CpmStepEvent": (("slack_ps", "cpm.slack_ps"),),
    "GuardbandViolationEvent": (("deficit_ps", "guardband.deficit_ps"),),
    "DriftAlertEvent": (("mean_residual_mhz", "drift.residual_mhz"),),
}


def capture_summary(tsdb: Tsdb, metrics_summary: dict) -> int:
    """Fold a manifest's metrics summary in (one headline sample each)."""
    from ..analyze.history import headline_value

    recorded = 0
    for name in sorted(metrics_summary):
        value = headline_value(metrics_summary[name])
        if value is not None:
            tsdb.record(name, 0.0, value)
            recorded += 1
    return recorded


def capture_documents(tsdb: Tsdb, documents) -> int:
    """Fold raw event documents in; returns the number of samples."""
    recorded = 0
    for document in documents:
        type_name = document.get("type")
        if not isinstance(type_name, str) or not type_name:
            continue
        tick = float(document.get("seq", 0))
        tsdb.record(EVENT_METRIC_PREFIX + type_name, tick, 1.0)
        recorded += 1
        for field_name, metric in EVENT_VALUE_METRICS.get(type_name, ()):
            value = document.get(field_name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                tsdb.record(metric, tick, float(value))
                recorded += 1
        if type_name == "RollbackEvent":
            from_steps = document.get("from_steps")
            to_steps = document.get("to_steps")
            if isinstance(from_steps, int) and isinstance(to_steps, int):
                tsdb.record(
                    "rollback.depth_steps", tick, float(from_steps - to_steps)
                )
                recorded += 1
    return recorded


def capture_stream(tsdb: Tsdb, path: str | Path) -> tuple[int, int]:
    """Fold a JSONL event stream (plain or segmented) in.

    Returns ``(recorded_samples, skipped_lines)``; a truncated final
    line/segment is counted in ``skipped_lines`` rather than raising.
    """
    documents, skipped = read_jsonl_documents(path, tolerant=True)
    return capture_documents(tsdb, documents), skipped
