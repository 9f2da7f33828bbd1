"""``repro.obs.stream`` — mergeable, bounded-memory streaming telemetry.

The streaming layer lets observability scale to fleet-sized runs without
growing memory with sample count or event count:

* :mod:`~repro.obs.stream.exact` — :class:`ExactSum` /
  :class:`MergeableStat`, the error-free accumulation substrate that
  makes every merge in this package order-invariant;
* :mod:`~repro.obs.stream.sketch` — :class:`QuantileSketch`,
  deterministic compacting streaming quantiles (p50/p95/p99 in bounded
  memory, same inputs ⇒ same sketch bytes);
* :mod:`~repro.obs.stream.histogram` — :class:`MergeableHistogram`,
  exact fixed-bucket histograms with order-invariant merge;
* :mod:`~repro.obs.stream.window` — :class:`WindowedAggregator`,
  per-tick-window stats keyed on obs ticks;
* :mod:`~repro.obs.stream.rotate` — :class:`RotatingJsonlSink` and the
  segmented-stream readers/compactor;
* :mod:`~repro.obs.stream.progress` — operator-facing progress/ETA
  reporting (wall clock via :mod:`repro.obs.profiling` only);
* :mod:`~repro.obs.stream.flame` — Chrome-trace / speedscope span-tree
  exports behind ``repro obs flame``.

The shared contract (documented in OBSERVABILITY.md "Streaming layer"):
each aggregate's state is a pure function of the observed multiset, so
chunked fleet runs and ``--jobs N`` worker pools fold partial summaries
into byte-identical rollups regardless of chunk size or scheduling.
"""

from .exact import ExactSum, MergeableStat
from .flame import FLAME_FORMATS, chrome_trace, render_flame, speedscope_profile
from .histogram import MergeableHistogram
from .progress import ProgressReporter
from .rotate import (
    DEFAULT_EVENTS_PER_SEGMENT,
    RotatingJsonlSink,
    compact_segments,
    is_segment_index,
    load_segment_index,
    read_segmented_documents,
    segment_index_path,
    segmented_events_sha256,
)
from .sketch import QuantileSketch
from .window import WindowedAggregator

__all__ = [
    "DEFAULT_EVENTS_PER_SEGMENT",
    "ExactSum",
    "FLAME_FORMATS",
    "MergeableHistogram",
    "MergeableStat",
    "ProgressReporter",
    "QuantileSketch",
    "RotatingJsonlSink",
    "WindowedAggregator",
    "chrome_trace",
    "compact_segments",
    "is_segment_index",
    "load_segment_index",
    "read_segmented_documents",
    "render_flame",
    "segment_index_path",
    "segmented_events_sha256",
    "speedscope_profile",
]
