"""Exact mergeable histograms over fixed bucket bounds.

A :class:`MergeableHistogram` is the bucketed complement of
:class:`~repro.obs.stream.sketch.QuantileSketch`: the caller fixes the
bucket bounds up front, and the state — integer per-bucket counts plus an
exact :class:`~repro.obs.stream.exact.MergeableStat` — is *exact*, not
approximate.  Because every component is a commutative, associative fold
over the observation multiset (integer adds, error-free sum, min/max),
merging partial histograms from any chunking or worker scheduling yields
the same state as observing the union stream directly.

Two histograms merge only if their bucket bounds are identical — the
bounds are part of the type, the counts are the state.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence

from ...errors import ConfigurationError
from .exact import MergeableStat


class MergeableHistogram:
    """Fixed-bound histogram with an exact, order-invariant merge."""

    __slots__ = ("_bounds", "_counts", "_stat")

    def __init__(self, buckets: Sequence[float]):
        if not buckets:
            raise ConfigurationError("histogram needs at least one bucket bound")
        upper_bounds = tuple(float(b) for b in buckets)
        if list(upper_bounds) != sorted(set(upper_bounds)):
            raise ConfigurationError("bucket bounds must be strictly increasing")
        self._bounds = upper_bounds
        # One overflow bucket past the last bound.
        self._counts = [0] * (len(upper_bounds) + 1)
        self._stat = MergeableStat()

    @property
    def bounds(self) -> tuple[float, ...]:
        return self._bounds

    @property
    def count(self) -> int:
        return self._stat.count

    @property
    def sum(self) -> float:
        """Correctly-rounded exact sum of every observation."""
        return self._stat.total

    @property
    def mean(self) -> float:
        return self._stat.mean

    @property
    def minimum(self) -> float:
        return self._stat.minimum

    @property
    def maximum(self) -> float:
        return self._stat.maximum

    def observe(self, value: float) -> None:
        """Count ``value`` into its bucket (observations <= bound)."""
        value = float(value)
        self._counts[bisect.bisect_left(self._bounds, value)] += 1
        self._stat.add(value)

    def bucket_counts(self) -> tuple[int, ...]:
        """Per-bucket counts; the last entry is the overflow bucket."""
        return tuple(self._counts)

    def merge(self, other: MergeableHistogram) -> None:
        """Fold another histogram in (requires identical bounds)."""
        if self._bounds != other._bounds:
            raise ConfigurationError(
                "cannot merge histograms with different bucket bounds"
            )
        for index, count in enumerate(other._counts):
            self._counts[index] += count
        self._stat.merge(other._stat)

    def quantile(self, q: float, *, interpolate: bool = False) -> float:
        """Nearest-rank quantile over the bucket counts.

        Default: the covering bucket's upper bound (``inf`` when the rank
        falls in the overflow bucket) — a conservative "value <= x" answer.
        With ``interpolate=True``: linear interpolation inside the covering
        bucket, with the bucket's lower edge clamped to the observed
        minimum and the overflow bucket spanning up to the observed
        maximum — a point estimate that is always finite.
        """
        if not (0.0 <= q <= 1.0):
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        total = self._stat.count
        if total == 0:
            raise ConfigurationError("histogram is empty")
        target = q * total
        seen = 0
        for index, count in enumerate(self._counts):
            seen += count
            if seen >= target and count:
                if not interpolate:
                    if index < len(self._bounds):
                        return self._bounds[index]
                    return float("inf")
                lower = self._bounds[index - 1] if index > 0 else self._stat.minimum
                upper = (
                    self._bounds[index]
                    if index < len(self._bounds)
                    else self._stat.maximum
                )
                lower = max(lower, self._stat.minimum)
                upper = min(upper, self._stat.maximum)
                if upper <= lower:
                    return lower
                # Position of the target rank inside this bucket's count.
                fraction = (target - (seen - count)) / count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return float("inf") if not interpolate else self._stat.maximum

    def to_state(self) -> dict:
        """Canonical JSON-native state."""
        return {
            "bounds": list(self._bounds),
            "counts": list(self._counts),
            "stat": self._stat.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> MergeableHistogram:
        out = cls(state["bounds"])
        counts = [int(c) for c in state["counts"]]
        if len(counts) != len(out._counts):
            raise ConfigurationError(
                f"state has {len(counts)} buckets, bounds imply {len(out._counts)}"
            )
        out._counts = counts
        out._stat = MergeableStat.from_state(state["stat"])
        return out
