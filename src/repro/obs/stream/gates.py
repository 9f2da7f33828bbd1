"""Shared judging primitives: nearest-rank quantiles, fences, ratio gates.

Every "is this value out of line?" decision in the repo reads through
this module, so a fleet report, fleet health triage, an alert rule and
a bench comparison can never disagree about what a quantile or a
regression is:

* :func:`quantile_from_counts` — the nearest-rank quantile of a
  histogram (``{value: count}``).  A raw sample's nearest-rank quantile
  is the same function over ``collections.Counter(sample)``; it is also
  the rank convention :class:`~repro.obs.stream.sketch.QuantileSketch`
  states its error bound against.
* :func:`quantile_fence` — a Tukey-style fence ``k`` quantile spreads off
  the median, with the spread floored so a tight distribution (zero
  spread) does not flag its own ties.
* :func:`exceeds_ratio_gate` — a ratio threshold plus an absolute noise
  floor, shared by ``repro bench --compare``, ``repro obs history`` and
  the ``ratio_vs_baseline`` alert rule.
"""

from __future__ import annotations

import math
from collections.abc import Mapping

from ...errors import ConfigurationError

#: Default fence multiplier (Tukey-style, over quantile spreads).
DEFAULT_FENCE_K = 1.5

#: Absolute wall-clock slack for the regression gate: deltas below this
#: are scheduling noise on shared CI hosts, never a regression.
#: ``repro bench --compare`` overrides it with ``--noise-floor-ms``.
MIN_REGRESSION_S = 0.05


def quantile_from_counts(counts: Mapping, q: float):
    """Nearest-rank quantile of a ``{value: count}`` histogram (exact)."""
    if not counts:
        raise ConfigurationError("cannot take a quantile of an empty histogram")
    if not (0.0 <= q <= 1.0):
        raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
    rank = max(1, math.ceil(q * sum(counts.values())))
    cumulative = 0
    for value in sorted(counts):
        cumulative += counts[value]
        if cumulative >= rank:
            break
    return value


def check_fence_k(k: float) -> None:
    """Reject a fence multiplier that is not finite and > 0: a NaN fence
    would compare false against every value and silently flag nothing."""
    if not (math.isfinite(k) and k > 0.0):
        raise ConfigurationError(f"fence k must be finite and > 0, got {k}")


def quantile_fence(counts: Mapping, *, k: float, op: str, floor: float) -> float:
    """The bound a value must not cross to stay in line with ``counts``.

    ``op="below"`` fences the low tail at ``p50 − k·max(p50 − p10, floor)``
    and ``op="above"`` the high tail at ``p50 + k·max(p90 − p50, floor)``.
    ``k`` must pass :func:`check_fence_k`.
    """
    check_fence_k(k)
    p50 = quantile_from_counts(counts, 0.50)
    if op == "below":
        return p50 - k * max(p50 - quantile_from_counts(counts, 0.10), floor)
    if op == "above":
        return p50 + k * max(quantile_from_counts(counts, 0.90) - p50, floor)
    raise ConfigurationError(f"fence op must be 'above' or 'below', got {op!r}")


def exceeds_ratio_gate(
    fresh: float,
    base: float,
    *,
    threshold: float,
    min_delta: float = MIN_REGRESSION_S,
) -> bool:
    """Shared regression predicate: ratio threshold plus a noise floor.

    True when ``fresh / base > threshold`` *and* the absolute increase
    exceeds ``min_delta`` — the two-condition gate ``repro bench
    --compare`` applies to wall-clock totals, reused by ``repro obs
    history`` for metric series and by ``ratio_vs_baseline`` alert rules
    (each with a caller-chosen floor).
    """
    if threshold <= 0.0:
        raise ConfigurationError(f"threshold must be > 0, got {threshold}")
    if base > 0.0:
        ratio = fresh / base
    else:
        ratio = float("inf") if fresh > 0.0 else 0.0
    return ratio > threshold and (fresh - base) > min_delta
