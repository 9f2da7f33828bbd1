"""Counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` is a flat namespace of named instruments.  All
three instrument types are cheap enough to leave permanently enabled: a
counter increment is one integer add, a histogram observation is one
binary search plus two adds, and a gauge observation is one sketch
insert.

Gauges keep bounded memory: samples fold into a deterministic
:class:`~repro.obs.stream.sketch.QuantileSketch`, so gauge summaries are
estimates within the sketch's documented relative error bound, and each
summary entry carries ``"mode": "streaming"`` so readers know.

Every instrument is **mergeable**.  :meth:`MetricsRegistry.merge` (and
its state-dict form for process pools) is order-invariant: every
component is a commutative, associative fold over the observation
multiset — integer adds, error-free sums, min/max, and the
partition-invariant sketch — so partial registries from chunked or
pooled runs fold into byte-identical summaries regardless of chunk size
or scheduling.

Nothing here reads the host clock; gauge samples are keyed on whatever
simulated tick the caller supplies (defaulting to the sample index), so a
registry's summary is byte-for-byte reproducible for a fixed seed.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence

from ..analysis.rendering import ascii_table
from ..errors import ConfigurationError
from .stream.histogram import MergeableHistogram
from .stream.sketch import QuantileSketch

#: Default histogram buckets (upper bounds); chosen to resolve both
#: iteration counts and millisecond-scale quantities without tuning.
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0)


def identity_tick(identity: str) -> float:
    """Partition-invariant gauge tick derived from a stable identity.

    Gauges define ``last`` as the max ``(tick, value)`` pair, so
    a merged ``last`` is only a pure function of the sample multiset when
    ticks are themselves partition-invariant.  Call sites with no natural
    global index (e.g. per-chip solves that may run in any pool worker)
    hash a stable identity string — the chip id — into the tick.  The
    first 13 hex digits (52 bits) fit a float64 exactly.
    """
    digest = hashlib.sha256(identity.encode("utf-8")).hexdigest()
    return float(int(digest[:13], 16))


class Counter:
    """Monotonic event counter."""

    def __init__(self, name: str):
        self.name = name
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError(f"{self.name}: cannot count down by {amount}")
        self._value += amount

    def merge(self, other: Counter) -> None:
        """Fold another counter in (integer add: order-invariant)."""
        self._value += other._value

    def to_state(self) -> dict:
        return {"kind": "counter", "value": self._value}

    @classmethod
    def from_state(cls, name: str, state: dict) -> Counter:
        out = cls(name)
        out._value = int(state["value"])
        return out


class Gauge:
    """A sampled value, folded into a bounded-memory quantile sketch."""

    def __init__(self, name: str):
        self.name = name
        self._sketch = QuantileSketch()
        # "last" is the max (tick, value) pair — a pure function of the
        # sample multiset, so merges stay invariant.
        self._last: tuple[float, float] | None = None

    @property
    def sample_count(self) -> int:
        return self._sketch.count

    @property
    def sketch(self) -> QuantileSketch:
        """The quantile sketch every sample folds into."""
        return self._sketch

    def set(self, value: float, tick: float | None = None) -> None:
        """Record one sample at simulated ``tick`` (default: sample index)."""
        value = float(value)
        tick = float(self._sketch.count) if tick is None else float(tick)
        self._sketch.add(value)
        key = (tick, value)
        if self._last is None or key > self._last:
            self._last = key

    @property
    def last(self) -> float:
        """The sample with the largest tick (value as tiebreak).

        Identical to emission order when ticks are monotonic, and
        merge-order-invariant always.  Raises on an empty gauge.
        """
        if self._last is None:
            raise ConfigurationError(f"{self.name}: gauge has no samples")
        return self._last[1]

    def summary(self) -> dict[str, float]:
        """min/max/mean/p50/p95/p99 of every sample.

        min, max and mean are exact; the quantiles are sketch estimates
        within :attr:`~repro.obs.stream.sketch.QuantileSketch.quantile_error_bound`.
        """
        return self._sketch.summary()

    def merge(self, other: Gauge) -> None:
        """Fold another gauge in (order-invariant)."""
        self._sketch.merge(other._sketch)
        if other._last is not None and (
            self._last is None or other._last > self._last
        ):
            self._last = other._last

    def to_state(self) -> dict:
        return {
            "kind": "gauge",
            "sketch": self._sketch.to_state(),
            "last": list(self._last) if self._last is not None else None,
        }

    @classmethod
    def from_state(cls, name: str, state: dict) -> Gauge:
        out = cls(name)
        out._sketch = QuantileSketch.from_state(state["sketch"])
        last = state.get("last")
        out._last = (float(last[0]), float(last[1])) if last else None
        return out


class Histogram:
    """Fixed-bucket histogram of float observations (exact, mergeable).

    Backed by :class:`~repro.obs.stream.histogram.MergeableHistogram`:
    integer bucket counts plus an error-free sum, so two histograms with
    identical bounds merge order-invariantly.
    """

    def __init__(self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not buckets:
            raise ConfigurationError(f"{name}: histogram needs buckets")
        self.name = name
        try:
            self._hist = MergeableHistogram(buckets)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{name}: {exc}") from exc

    @property
    def bounds(self) -> tuple[float, ...]:
        return self._hist.bounds

    @property
    def count(self) -> int:
        return self._hist.count

    @property
    def sum(self) -> float:
        """Exact (correctly-rounded, order-invariant) observation sum."""
        return self._hist.sum

    @property
    def mean(self) -> float:
        if self._hist.count == 0:
            raise ConfigurationError(f"{self.name}: histogram is empty")
        return self._hist.mean

    def observe(self, value: float) -> None:
        """Count ``value`` into its bucket (observations <= bound)."""
        self._hist.observe(value)

    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bucket counts; the last entry is the overflow bucket."""
        return tuple(self._hist.bucket_counts())

    def quantile(self, q: float, *, interpolate: bool = False) -> float:
        """Approximate quantile over the bucket counts.

        Default (``interpolate=False``): the covering bucket's **upper
        bound** — read it as "q of observations were <= this"; the rank
        falling in the overflow bucket returns ``inf``.  With
        ``interpolate=True``: a finite point estimate, linearly
        interpolated inside the covering bucket and clamped to the
        observed min/max (see
        :meth:`repro.obs.stream.histogram.MergeableHistogram.quantile`).
        """
        if self._hist.count == 0:
            raise ConfigurationError(f"{self.name}: histogram is empty")
        return self._hist.quantile(q, interpolate=interpolate)

    def merge(self, other: Histogram) -> None:
        """Fold another histogram in (requires identical bounds)."""
        try:
            self._hist.merge(other._hist)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{self.name}: {exc}") from exc

    def to_state(self) -> dict:
        state = self._hist.to_state()
        state["kind"] = "histogram"
        return state

    @classmethod
    def from_state(cls, name: str, state: dict) -> Histogram:
        out = cls(name, buckets=state["bounds"])
        out._hist = MergeableHistogram.from_state(
            {k: v for k, v in state.items() if k != "kind"}
        )
        return out


#: Registry state-dict schema (the shape pool workers ship home).  Schema
#: 2 drops the gauge-mode keys: every gauge is a sketch.
REGISTRY_STATE_SCHEMA = 2

_INSTRUMENT_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Flat namespace of counters, gauges, and histograms.

    Instruments are get-or-create by name; asking for an existing name
    with a different instrument type is an error (one name, one meaning).
    """

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get_or_create(self, name: str, factory, kind: type):
        if not name:
            raise ConfigurationError("instrument name must be non-empty")
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise ConfigurationError(
                f"{name} is a {type(instrument).__name__}, not a {kind.__name__}"
            )
        return instrument

    # Each getter first returns an existing instrument of exactly its
    # class straight from the dict: hot paths look counters up once per
    # walk.  New names, empty names and kind mismatches take
    # _get_or_create, which creates or raises.

    def counter(self, name: str) -> Counter:
        instrument = self._instruments.get(name)
        if type(instrument) is Counter:
            return instrument
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def gauge(self, name: str) -> Gauge:
        instrument = self._instruments.get(name)
        if type(instrument) is Gauge:
            return instrument
        return self._get_or_create(name, lambda: Gauge(name), Gauge)

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        instrument = self._instruments.get(name)
        if type(instrument) is Histogram:
            return instrument
        return self._get_or_create(name, lambda: Histogram(name, buckets), Histogram)

    def names(self) -> tuple[str, ...]:
        """Every registered instrument name, sorted."""
        return tuple(sorted(self._instruments))

    def __len__(self) -> int:
        return len(self._instruments)

    def merge(self, other: MetricsRegistry) -> None:
        """Fold another registry in — the fleet rollup operator.

        Order-invariant by construction: counters are integer adds,
        histograms are integer bucket adds plus error-free sums, and
        gauges merge partition-invariant sketches, so any sequence of
        merges over any partitioning of the observations produces the
        same summary bytes.
        """
        for name in sorted(other._instruments):
            theirs = other._instruments[name]
            mine = self._instruments.get(name)
            if mine is None:
                if isinstance(theirs, Counter):
                    mine = self.counter(name)
                elif isinstance(theirs, Gauge):
                    mine = self.gauge(name)
                else:
                    mine = self.histogram(name, buckets=theirs.bounds)
            elif type(mine) is not type(theirs):
                raise ConfigurationError(
                    f"{name} is a {type(mine).__name__} here but a "
                    f"{type(theirs).__name__} in the merged registry"
                )
            mine.merge(theirs)  # type: ignore[arg-type]

    def to_state(self) -> dict:
        """JSON-native mergeable state (what pool workers return)."""
        return {
            "schema": REGISTRY_STATE_SCHEMA,
            "instruments": {
                name: self._instruments[name].to_state() for name in self.names()
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> MetricsRegistry:
        schema = state.get("schema")
        if schema != REGISTRY_STATE_SCHEMA:
            raise ConfigurationError(
                f"unsupported registry state schema {schema!r}"
            )
        out = cls()
        for name, instrument_state in state["instruments"].items():
            kind = str(instrument_state.get("kind"))
            factory = _INSTRUMENT_KINDS.get(kind)
            if factory is None:
                raise ConfigurationError(f"{name}: unknown instrument kind {kind!r}")
            out._instruments[name] = factory.from_state(name, instrument_state)
        return out

    def merge_state(self, state: dict) -> None:
        """Fold a worker's :meth:`to_state` dict in."""
        self.merge(MetricsRegistry.from_state(state))

    def to_summary(self) -> dict[str, dict]:
        """Deterministic nested-dict summary of every instrument."""
        summary: dict[str, dict] = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Counter):
                summary[name] = {"kind": "counter", "value": instrument.value}
            elif isinstance(instrument, Gauge):
                entry: dict = {
                    "kind": "gauge",
                    "samples": instrument.sample_count,
                    "mode": "streaming",
                }
                if instrument.sample_count:
                    entry.update(instrument.summary())
                summary[name] = entry
            else:
                entry = {"kind": "histogram", "count": instrument.count}
                if instrument.count:
                    entry["mean"] = instrument.mean
                    entry["p50"] = instrument.quantile(0.5)
                    entry["p95"] = instrument.quantile(0.95)
                    entry["p99"] = instrument.quantile(0.99)
                    # Finite point estimates alongside the conservative
                    # bucket bounds (rendered as ~p95 in the table).
                    entry["p50_interp"] = instrument.quantile(0.5, interpolate=True)
                    entry["p95_interp"] = instrument.quantile(0.95, interpolate=True)
                    entry["p99_interp"] = instrument.quantile(0.99, interpolate=True)
                summary[name] = entry
        return summary

    def render_table(self, title: str = "metrics") -> str:
        """Fixed-width table of every instrument, one row each."""
        return render_summary_table(self.to_summary(), title=title)


def render_summary_table(summary: dict[str, dict], title: str = "metrics") -> str:
    """Render a :meth:`MetricsRegistry.to_summary` dict (or one read back
    from a run manifest) as a fixed-width table.

    Histogram quantiles render twice: the conservative bucket upper bound
    (``p95<=``) and, when the raw counts are not available (summaries only
    carry the precomputed bounds), that is the whole story — interpolated
    point estimates are a live-:class:`Histogram` query
    (``quantile(q, interpolate=True)``), surfaced here as ``~p95`` when an
    entry carries them.
    """
    rows = []
    for name in sorted(summary):
        entry = summary[name]
        kind = entry["kind"]
        if kind == "counter":
            detail = f"value={entry['value']}"
        elif kind == "gauge":
            if entry["samples"]:
                detail = (
                    f"n={entry['samples']} mean={entry['mean']:.4g} "
                    f"p50={entry['p50']:.4g} p95={entry['p95']:.4g}"
                )
                # Summaries read back from pre-p99 manifests lack the key.
                if "p99" in entry:
                    detail += f" p99={entry['p99']:.4g}"
                if entry.get("mode") == "streaming":
                    detail += " (streaming est.)"
            else:
                detail = "n=0"
        else:
            if entry["count"]:
                detail = (
                    f"n={entry['count']} mean={entry['mean']:.4g} "
                    f"p50<={entry['p50']:.4g} p95<={entry['p95']:.4g}"
                )
                if "p99" in entry:
                    detail += f" p99<={entry['p99']:.4g}"
                if "p95_interp" in entry:
                    detail += f" ~p95={entry['p95_interp']:.4g}"
            else:
                detail = "n=0"
        rows.append((name, kind, detail))
    if not rows:
        return f"{title}\n(no instruments registered)"
    return ascii_table(("metric", "kind", "summary"), rows, title=title)
