"""Per-metric time series keyed on ``(experiment, seed, metric, window)``.

The write-side substrate of the alerting layer: a :class:`Tsdb` holds one
:class:`MetricTimeSeries` per metric for a single ``(experiment, seed)``
run, each series folding ``(tick, value)`` samples into fixed tick
windows via :class:`~repro.obs.stream.window.WindowedAggregator`.  Ticks
are simulated sequence numbers (event ``seq``, global chip index), never
host time, so the whole structure inherits the repo's determinism
contract: same seed ⇒ identical state, and therefore byte-identical
serialized series (see :mod:`repro.obs.tsdb.store`).

Merging is order-invariant all the way down — window indices are exact
integers and per-window stats are error-free folds — so partial tsdbs
built by ``--jobs N`` pool workers over arbitrary chunkings combine into
exactly the state a serial run produces.  That property is what lets
alert evaluation (:mod:`repro.obs.alerts`) be golden-tested across the
serial/chunked/pooled matrix.
"""

from __future__ import annotations

import re

from ...errors import ConfigurationError
from ..stream.window import WindowedAggregator, window_width

#: Serialized tsdb/series document schema revision.
TSDB_SCHEMA = 1

#: Default tick-window width.  Chip-indexed fleet metrics land 64 chips
#: per window; event-seq'd run metrics land 64 events per window.
DEFAULT_WINDOW_TICKS = 64.0

_METRIC_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z0-9_]+)*$")


def validate_metric_name(metric: str) -> str:
    """Check a metric name is dotted-identifier shaped; return it.

    Names double as store filenames (``<metric>.series.json``), so the
    grammar is deliberately narrow: dot-separated ``[A-Za-z0-9_]`` words.
    """
    if not isinstance(metric, str) or not _METRIC_NAME_RE.match(metric):
        raise ConfigurationError(
            f"invalid metric name {metric!r}: expected dot-separated "
            "identifier words, e.g. 'fleet.tuned_slowest_mhz'"
        )
    return metric


class MetricTimeSeries:
    """Every sample of one metric, folded into fixed tick windows."""

    __slots__ = ("metric", "_aggregator")

    def __init__(self, metric: str, *, window_ticks: float = DEFAULT_WINDOW_TICKS):
        self.metric = validate_metric_name(metric)
        self._aggregator = WindowedAggregator(window_ticks)

    @property
    def window_ticks(self) -> float:
        return self._aggregator.window_ticks

    @property
    def window_count(self) -> int:
        return self._aggregator.window_count

    @property
    def sample_count(self) -> int:
        return sum(int(entry["count"]) for entry in self._aggregator.series())

    def add(self, tick: float, value: float) -> None:
        """Fold one sample into its tick window."""
        self._aggregator.add(tick, value)

    def merge(self, other: MetricTimeSeries) -> None:
        """Fold another series for the *same* metric in."""
        if other.metric != self.metric:
            raise ConfigurationError(
                f"cannot merge series {other.metric!r} into {self.metric!r}"
            )
        self._aggregator.merge(other._aggregator)

    def windows(self) -> list[dict[str, float]]:
        """Per-window reductions in tick order.

        Each entry carries ``window``/``start_tick`` plus every reducer
        the alert engine understands: ``count``/``min``/``max``/``mean``
        and the exact ``sum``.
        """
        out = []
        for entry in self._aggregator.series():
            stat = self._aggregator.window(int(entry["window"]))
            out.append({**entry, "sum": stat.total})
        return out

    def to_state(self) -> dict:
        """Canonical JSON-native state."""
        return {
            "metric": self.metric,
            "aggregator": self._aggregator.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> MetricTimeSeries:
        aggregator = WindowedAggregator.from_state(state["aggregator"])
        out = cls(str(state["metric"]), window_ticks=aggregator.window_ticks)
        out._aggregator = aggregator
        return out


class Tsdb:
    """All metric series of one ``(experiment, seed)`` run.

    An in-memory accumulator: :meth:`record` during the run, then either
    persist through :class:`~repro.obs.tsdb.store.TsdbStore` or evaluate
    alert rules over it directly.  Pool workers build private instances
    and the parent folds their :meth:`to_state` snapshots back in with
    :meth:`merge_state`.
    """

    __slots__ = ("experiment", "seed", "_window_ticks", "_series")

    def __init__(
        self,
        experiment: str,
        seed: int,
        *,
        window_ticks: float = DEFAULT_WINDOW_TICKS,
    ):
        if not experiment or "\n" in experiment or "/" in experiment:
            raise ConfigurationError(
                f"invalid experiment id {experiment!r} for a tsdb"
            )
        self.experiment = experiment
        self.seed = int(seed)
        self._window_ticks = window_width(window_ticks)
        self._series: dict[str, MetricTimeSeries] = {}

    @property
    def window_ticks(self) -> float:
        return self._window_ticks

    def __len__(self) -> int:
        return len(self._series)

    def __contains__(self, metric: str) -> bool:
        return metric in self._series

    def record(self, metric: str, tick: float, value: float) -> None:
        """Fold one sample of ``metric`` into its tick window."""
        series = self._series.get(metric)
        if series is None:
            series = self._series[metric] = MetricTimeSeries(
                metric, window_ticks=self._window_ticks
            )
        series.add(tick, value)

    def metrics(self) -> tuple[str, ...]:
        """Every recorded metric name, sorted."""
        return tuple(sorted(self._series))

    def series(self, metric: str) -> MetricTimeSeries:
        """The series for ``metric``; raises if never recorded."""
        series = self._series.get(metric)
        if series is None:
            raise ConfigurationError(
                f"no series for metric {metric!r} in "
                f"{self.experiment}@s{self.seed}"
            )
        return series

    def _check_mergeable(self, other: Tsdb) -> None:
        if (
            other.experiment != self.experiment
            or other.seed != self.seed
            or other._window_ticks != self._window_ticks  # repro-lint: disable=RL005
        ):
            # Exact config equality is the contract (same literals or no
            # merge), mirroring WindowedAggregator.merge.
            raise ConfigurationError(
                f"cannot merge tsdb {other.experiment}@s{other.seed} "
                f"(window {other._window_ticks}) into "
                f"{self.experiment}@s{self.seed} (window {self._window_ticks})"
            )

    def merge(self, other: Tsdb) -> None:
        """Fold another tsdb for the same run in (order-invariant)."""
        self._check_mergeable(other)
        for metric, series in other._series.items():
            mine = self._series.get(metric)
            if mine is None:
                self._series[metric] = MetricTimeSeries.from_state(
                    series.to_state()
                )
            else:
                mine.merge(series)

    def merge_state(self, state: dict) -> None:
        """Fold a :meth:`to_state` snapshot in (pool-worker fold path)."""
        self.merge(Tsdb.from_state(state))

    def to_state(self) -> dict:
        """Canonical JSON-native state (series sorted by metric)."""
        return {
            "kind": "tsdb",
            "schema": TSDB_SCHEMA,
            "experiment": self.experiment,
            "seed": self.seed,
            "window_ticks": self._window_ticks,
            "series": {
                metric: self._series[metric].to_state()["aggregator"]
                for metric in sorted(self._series)
            },
        }

    @classmethod
    def from_state(cls, state: dict) -> Tsdb:
        if state.get("kind") != "tsdb" or state.get("schema") != TSDB_SCHEMA:
            raise ConfigurationError(
                f"not a schema-{TSDB_SCHEMA} tsdb state: "
                f"kind={state.get('kind')!r} schema={state.get('schema')!r}"
            )
        out = cls(
            str(state["experiment"]),
            int(state["seed"]),
            window_ticks=float(state["window_ticks"]),
        )
        for metric, aggregator_state in state["series"].items():
            out._series[metric] = MetricTimeSeries.from_state(
                {"metric": metric, "aggregator": aggregator_state}
            )
        return out
