"""Deterministic, mergeable quantile sketch (log-bucketed, compacting).

:class:`QuantileSketch` answers p50/p95/p99 queries over an unbounded
value stream in bounded memory with a *documented relative error bound*,
and — unlike randomized compaction sketches — its state is a pure
function of the observed **multiset**:

* a positive value ``v`` lands in log-bucket ``floor(log(v) / log(γ₀))``;
  negatives mirror into a second store, zeros (and magnitudes below
  ``min_magnitude``) into an exact counter;
* bucket counts are integers, so inserting and merging are commutative
  and associative;
* **compaction** halves the resolution (``γ → γ²``, bucket index
  ``i → i >> 1``) whenever the number of live buckets exceeds
  ``max_buckets``.  The trigger is the deterministic bucket-count rule —
  never a random coin, never the host clock — so the same inputs always
  produce the same sketch bytes.

Order-invariance proof (the property the fleet rollup golden tests pin):
let ``r(M)`` be the minimal resolution level at which multiset ``M``
fits in ``max_buckets``.  Coarsening only merges buckets, so the live
bucket count is non-increasing in the level, and buckets never empty, so
``M ⊆ N ⇒ r(M) ≤ r(N)``.  A sketch that has streamed ``M`` therefore
sits at exactly level ``r(M)`` with the level-``r(M)`` projection of
``M``'s bucket counts.  Merging two sketches coarsens both to the common
level ``max(r(A), r(B)) ≤ r(A ∪ B)``, adds counts, and re-compacts —
landing at level ``r(A ∪ B)`` with the union's counts, i.e. the same
state a single sketch streaming ``A ∪ B`` in any order reaches.  Every
partitioning of a sample stream across workers and chunks folds to
byte-identical state.

Quantiles are nearest-rank over the bucket counts; a bucket's estimate
is its geometric midpoint ``γ^(i+0.5)``, clamped into the exact observed
``[min, max]``.  The documented bound: the estimate's relative error is
at most :attr:`QuantileSketch.quantile_error_bound` =
``sqrt(γ_level) − 1`` (≈ ``relative_accuracy`` until compaction first
fires, doubling-ish per compaction level).
"""

from __future__ import annotations

import math

from ...errors import ConfigurationError
from .exact import MergeableStat

#: Default relative accuracy of quantile estimates at level 0.
DEFAULT_RELATIVE_ACCURACY = 0.01

#: Default live-bucket cap; compaction halves resolution above it.
DEFAULT_MAX_BUCKETS = 2048

#: Magnitudes below this are counted as exact zeros (log would blow up
#: the index range for denormals while adding no quantile information).
DEFAULT_MIN_MAGNITUDE = 1e-12


class QuantileSketch:
    """Mergeable streaming quantiles; state is a pure multiset function."""

    __slots__ = (
        "_gamma0",
        "_log_gamma0",
        "_max_buckets",
        "_min_magnitude",
        "_level",
        "_zero",
        "_pos",
        "_neg",
        "_stat",
    )

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        *,
        max_buckets: int = DEFAULT_MAX_BUCKETS,
        min_magnitude: float = DEFAULT_MIN_MAGNITUDE,
    ):
        if not (0.0 < relative_accuracy < 1.0):
            raise ConfigurationError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        # However far compaction coarsens, magnitudes on both sides of 1
        # keep two buckets per sign (indices -1 and 0), so a cap below 4
        # could never be met and compaction would loop forever.
        if max_buckets < 4:
            raise ConfigurationError(
                f"max_buckets must be >= 4, got {max_buckets}"
            )
        if min_magnitude <= 0.0:
            raise ConfigurationError(
                f"min_magnitude must be > 0, got {min_magnitude}"
            )
        # γ₀ chosen so the geometric-midpoint estimate's relative error at
        # level 0 is exactly the requested accuracy: sqrt(γ₀) = 1 + ra.
        self._gamma0 = (1.0 + relative_accuracy) ** 2
        self._log_gamma0 = math.log(self._gamma0)
        self._max_buckets = max_buckets
        self._min_magnitude = min_magnitude
        self._level = 0
        self._zero = 0
        self._pos: dict[int, int] = {}
        self._neg: dict[int, int] = {}
        self._stat = MergeableStat()

    # -- configuration / introspection ----------------------------------

    @property
    def relative_accuracy(self) -> float:
        """The level-0 relative error bound this sketch was built with."""
        return math.sqrt(self._gamma0) - 1.0

    @property
    def level(self) -> int:
        """Current compaction level (0 until the bucket cap first trips)."""
        return self._level

    @property
    def gamma(self) -> float:
        """Current bucket base: ``γ₀ ** (2 ** level)``."""
        return self._gamma0 ** (2 ** self._level)

    @property
    def quantile_error_bound(self) -> float:
        """Documented relative error bound at the current resolution."""
        return math.sqrt(self.gamma) - 1.0

    @property
    def count(self) -> int:
        return self._stat.count

    @property
    def bucket_count(self) -> int:
        """Live buckets (positive + negative stores; zero is one counter)."""
        return len(self._pos) + len(self._neg)

    @property
    def min(self) -> float:
        if self._stat.count == 0:
            raise ConfigurationError("sketch is empty")
        return self._stat.minimum

    @property
    def max(self) -> float:
        if self._stat.count == 0:
            raise ConfigurationError("sketch is empty")
        return self._stat.maximum

    @property
    def mean(self) -> float:
        """Exact (correctly-rounded, order-invariant) mean of all samples."""
        return self._stat.mean

    @property
    def sum(self) -> float:
        return self._stat.total

    # -- ingestion ------------------------------------------------------

    def _index0(self, magnitude: float) -> int:
        """Level-0 bucket index of a magnitude (> min_magnitude).

        The index is computed *once*, at level 0, and coarser indices are
        derived by arithmetic right-shift — so insertion and coarsening
        can never disagree about where a value lands.
        """
        return math.floor(math.log(magnitude) / self._log_gamma0)

    def add(self, value: float) -> None:
        """Fold one sample in."""
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            raise ConfigurationError(
                f"cannot sketch non-finite value {value!r}"
            )
        self._stat.add(value)
        magnitude = abs(value)
        if magnitude < self._min_magnitude:
            self._zero += 1
            return
        key = self._index0(magnitude) >> self._level
        store = self._pos if value > 0.0 else self._neg
        store[key] = store.get(key, 0) + 1
        if self.bucket_count > self._max_buckets:
            self._compact()

    def _compact(self) -> None:
        """Halve resolution until the live-bucket cap is respected."""
        while self.bucket_count > self._max_buckets:
            self._coarsen_to(self._level + 1)

    # -- merging --------------------------------------------------------

    def _coarsen_to(self, level: int) -> None:
        """Halve resolution (``i → i >> 1`` per level) up to ``level``."""
        while self._level < level:
            self._level += 1
            for name in ("_pos", "_neg"):
                old: dict[int, int] = getattr(self, name)
                new: dict[int, int] = {}
                for key, count in old.items():
                    coarse = key >> 1
                    new[coarse] = new.get(coarse, 0) + count
                setattr(self, name, new)

    def merge(self, other: QuantileSketch) -> None:
        """Fold another sketch in (associative, commutative, deterministic)."""
        if (
            self._gamma0 != other._gamma0  # repro-lint: disable=RL005
            or self._max_buckets != other._max_buckets
            or self._min_magnitude != other._min_magnitude  # repro-lint: disable=RL005
        ):
            # Exact config equality is the contract: both sketches were
            # built from the same literals or they do not merge.
            raise ConfigurationError(
                "cannot merge sketches with different configurations"
            )
        common = max(self._level, other._level)
        self._coarsen_to(common)
        self._zero += other._zero
        for name in ("_pos", "_neg"):
            mine: dict[int, int] = getattr(self, name)
            theirs: dict[int, int] = getattr(other, name)
            shift = common - other._level
            for key, count in theirs.items():
                coarse = key >> shift
                mine[coarse] = mine.get(coarse, 0) + count
        self._stat.merge(other._stat)
        if self.bucket_count > self._max_buckets:
            self._compact()

    # -- queries --------------------------------------------------------

    def _bucket_estimate(self, key: int, sign: float) -> float:
        gamma = self.gamma
        estimate = sign * gamma ** key * math.sqrt(gamma)
        # Clamp into the exact observed range so p0/p100 are exact and
        # log-rounding can never push an estimate outside the data.
        return min(max(estimate, self._stat.minimum), self._stat.maximum)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile estimate (see the module error bound)."""
        if not (0.0 <= q <= 1.0):
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        total = self._stat.count
        if total == 0:
            raise ConfigurationError("sketch is empty")
        rank = max(1, math.ceil(q * total))
        cumulative = 0
        # Value order: most-negative first (descending magnitude index),
        # then zeros, then positives ascending.
        for key in sorted(self._neg, reverse=True):
            cumulative += self._neg[key]
            if cumulative >= rank:
                return self._bucket_estimate(key, -1.0)
        cumulative += self._zero
        if cumulative >= rank:
            return min(max(0.0, self._stat.minimum), self._stat.maximum)
        for key in sorted(self._pos):
            cumulative += self._pos[key]
            if cumulative >= rank:
                return self._bucket_estimate(key, 1.0)
        return self._stat.maximum

    def summary(self) -> dict[str, float]:
        """min/max/mean/p50/p95/p99 in the shape gauges report."""
        return {
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    # -- serialization --------------------------------------------------

    def to_state(self) -> dict:
        """Canonical picklable/JSON-native state (sorted bucket items)."""
        return {
            "gamma0": self._gamma0,
            "max_buckets": self._max_buckets,
            "min_magnitude": self._min_magnitude,
            "level": self._level,
            "zero": self._zero,
            "pos": [[k, v] for k, v in sorted(self._pos.items())],
            "neg": [[k, v] for k, v in sorted(self._neg.items())],
            "stat": self._stat.to_state(),
        }

    @classmethod
    def from_state(cls, state: dict) -> QuantileSketch:
        out = cls.__new__(cls)
        out._gamma0 = float(state["gamma0"])
        out._log_gamma0 = math.log(out._gamma0)
        out._max_buckets = int(state["max_buckets"])
        out._min_magnitude = float(state["min_magnitude"])
        out._level = int(state["level"])
        out._zero = int(state["zero"])
        out._pos = {int(k): int(v) for k, v in state["pos"]}
        out._neg = {int(k): int(v) for k, v in state["neg"]}
        out._stat = MergeableStat.from_state(state["stat"])
        return out
