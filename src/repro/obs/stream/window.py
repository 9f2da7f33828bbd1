"""Windowed streaming aggregation keyed on observability ticks.

A :class:`WindowedAggregator` folds ``(tick, value)`` samples into
fixed-width tick windows — window ``k`` covers ticks
``[k*width, (k+1)*width)`` — keeping one exact
:class:`~repro.obs.stream.exact.MergeableStat` per window instead of the
sample series.  Ticks are the simulated sequence numbers the obs runtime
already stamps on every event, so windowing inherits the repo's
determinism contract for free: no host clock is involved anywhere.

Windows merge the same way everything in this package merges: window
indices are exact integers, per-window stats are order-invariant folds,
so partial aggregators from chunked or pooled runs combine into the state
a single aggregator would have reached over the union stream.

Memory is bounded by ``max_windows`` (most-recent windows win).  The
retention rule is itself order-invariant: "keep the ``max_windows``
largest window indices" commutes with merging, because a window index in
the top-N of a union is necessarily in the top-N of whichever side
contains it.
"""

from __future__ import annotations

import math

from ...errors import ConfigurationError
from .exact import MergeableStat


def window_width(window_ticks: float) -> float:
    """``window_ticks`` as a float width; it must be finite and > 0.

    A NaN width compares false against every bound and an infinite one
    folds every tick into window 0 (or NaN), and neither is valid JSON in
    a persisted series, so both are configuration errors.
    """
    width = float(window_ticks)
    if not (math.isfinite(width) and width > 0.0):
        raise ConfigurationError(
            f"window width must be finite and > 0 ticks, got {window_ticks}"
        )
    return width


class WindowedAggregator:
    """Per-tick-window min/max/mean/count with an order-invariant merge."""

    __slots__ = ("_width", "_max_windows", "_windows")

    def __init__(self, window_ticks: float, *, max_windows: int = 0):
        width = window_width(window_ticks)
        if max_windows < 0:
            raise ConfigurationError(
                f"max_windows must be >= 0 (0 = unbounded), got {max_windows}"
            )
        self._width = width
        self._max_windows = max_windows
        self._windows: dict[int, MergeableStat] = {}

    @property
    def window_ticks(self) -> float:
        return self._width

    @property
    def window_count(self) -> int:
        return len(self._windows)

    def _evict(self) -> None:
        if self._max_windows and len(self._windows) > self._max_windows:
            for index in sorted(self._windows)[: -self._max_windows]:
                del self._windows[index]

    def add(self, tick: float, value: float) -> None:
        """Fold one sample into its tick window."""
        tick = float(tick)
        if math.isnan(tick) or math.isinf(tick):
            raise ConfigurationError(f"cannot window non-finite tick {tick!r}")
        index = math.floor(tick / self._width)
        stat = self._windows.get(index)
        if stat is None:
            stat = self._windows[index] = MergeableStat()
        stat.add(value)
        self._evict()

    def merge(self, other: WindowedAggregator) -> None:
        """Fold another aggregator in (same width and retention required)."""
        if (
            self._width != other._width  # repro-lint: disable=RL005
            or self._max_windows != other._max_windows
        ):
            # Exact config equality is the contract: both aggregators were
            # built from the same literals or they do not merge.
            raise ConfigurationError(
                "cannot merge windowed aggregators with different configurations"
            )
        for index, stat in other._windows.items():
            mine = self._windows.get(index)
            if mine is None:
                mine = self._windows[index] = MergeableStat()
            mine.merge(stat)
        self._evict()

    def window(self, index: int) -> MergeableStat:
        """The stat for window ``index``; raises if never observed."""
        stat = self._windows.get(index)
        if stat is None:
            raise ConfigurationError(f"no samples in window {index}")
        return stat

    def series(self) -> list[dict[str, float]]:
        """Per-window summaries in tick order (deterministic)."""
        out = []
        for index in sorted(self._windows):
            stat = self._windows[index]
            out.append(
                {
                    "window": float(index),
                    "start_tick": index * self._width,
                    "count": float(stat.count),
                    "min": stat.minimum,
                    "max": stat.maximum,
                    "mean": stat.mean,
                }
            )
        return out

    def to_state(self) -> dict:
        """Canonical JSON-native state (windows sorted by index)."""
        return {
            "window_ticks": self._width,
            "max_windows": self._max_windows,
            "windows": [
                [index, self._windows[index].to_state()]
                for index in sorted(self._windows)
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> WindowedAggregator:
        out = cls(
            float(state["window_ticks"]),
            max_windows=int(state["max_windows"]),
        )
        for index, stat_state in state["windows"]:
            out._windows[int(index)] = MergeableStat.from_state(stat_state)
        return out
