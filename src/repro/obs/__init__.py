"""Deterministic observability: metrics, tracing, events, run manifests.

The subsystem watches the closed loops this reproduction is about — CPM
delay-reduction steps, DPLL guardband violations, per-<app, core>
rollbacks, field drift alerts — without ever perturbing them: all
ordering comes from a monotonic event sequence ("simulated ticks"), never
the host clock.  See OBSERVABILITY.md for the event taxonomy, sink wiring,
and manifest schema.

Layering: ``columnar`` (storage) ← ``metrics`` / ``events`` / ``sinks`` /
``trace`` ← ``runtime`` (installable context) ← ``manifest`` /
``selfcheck``.  The single wall-clock exemption lives in ``profiling``.
"""

from .columnar import TraceRecorder
from .events import (
    EVENT_TYPES,
    AlertEvent,
    CpmStepEvent,
    DriftAlertEvent,
    GuardbandViolationEvent,
    IncidentEvent,
    ObsEvent,
    RollbackEvent,
    SpanEvent,
    event_from_dict,
    event_to_dict,
)
from .manifest import (
    RunManifest,
    build_manifest,
    load_manifest,
    save_manifest,
    testbed_limits_fingerprint,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_summary_table,
)
from .runtime import Observability, get_obs, install, observed
from .selfcheck import run_selfcheck
from .sinks import (
    EventSink,
    JsonlFileSink,
    RingBufferSink,
    read_jsonl,
)
from .trace import Span, Tracer

__all__ = [
    "TraceRecorder",
    "ObsEvent",
    "CpmStepEvent",
    "GuardbandViolationEvent",
    "RollbackEvent",
    "DriftAlertEvent",
    "SpanEvent",
    "AlertEvent",
    "IncidentEvent",
    "EVENT_TYPES",
    "event_to_dict",
    "event_from_dict",
    "EventSink",
    "RingBufferSink",
    "JsonlFileSink",
    "read_jsonl",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_summary_table",
    "Span",
    "Tracer",
    "Observability",
    "get_obs",
    "install",
    "observed",
    "RunManifest",
    "build_manifest",
    "save_manifest",
    "load_manifest",
    "testbed_limits_fingerprint",
    "run_selfcheck",
]
