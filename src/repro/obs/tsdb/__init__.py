"""Persistent per-metric time-series layer (``repro.obs.tsdb``).

The storage half of the alerting stack: windowed, order-invariant,
canonically serialized metric series keyed on
``(experiment, seed, metric, tick-window)``.  See the module docstrings
of :mod:`~repro.obs.tsdb.series` (in-memory model),
:mod:`~repro.obs.tsdb.store` (on-disk layout),
:mod:`~repro.obs.tsdb.capture` (ingest paths), and
:mod:`~repro.obs.tsdb.openmetrics` (Prometheus-compatible exposition).
"""

from .capture import (
    capture_documents,
    capture_stream,
    capture_summary,
)
from .openmetrics import (
    openmetrics_name,
    parse_openmetrics,
    render_openmetrics,
)
from .series import (
    DEFAULT_WINDOW_TICKS,
    TSDB_SCHEMA,
    MetricTimeSeries,
    Tsdb,
    validate_metric_name,
)
from .store import SERIES_SUFFIX, TsdbStore

__all__ = [
    "DEFAULT_WINDOW_TICKS",
    "SERIES_SUFFIX",
    "TSDB_SCHEMA",
    "MetricTimeSeries",
    "Tsdb",
    "TsdbStore",
    "capture_documents",
    "capture_stream",
    "capture_summary",
    "openmetrics_name",
    "parse_openmetrics",
    "render_openmetrics",
    "validate_metric_name",
]
