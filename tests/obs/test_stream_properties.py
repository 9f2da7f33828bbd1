"""Property tests: streaming-layer merges are pure multiset functions.

Hypothesis drives random sample multisets, random partitionings of them
across accumulators, and random merge orders, asserting the streaming
layer's central contract: every merged state — sketch, histogram, stat,
windowed aggregator, whole registry — is byte-identical to the state a
single accumulator reaches streaming the union, no matter how the
samples were chunked or in which order the partials folded.  The
quantile tests pin the second contract: estimates stay within the
documented relative error bound of the exact nearest-rank answer.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry, identity_tick
from repro.obs.stream.exact import ExactSum, MergeableStat
from repro.obs.stream.histogram import MergeableHistogram
from repro.obs.stream.sketch import QuantileSketch
from repro.obs.stream.window import WindowedAggregator

#: Sample values: exact zeros plus magnitudes safely above the sketch's
#: min_magnitude floor (values below it are counted as zeros, which
#: would make a relative-error comparison against the raw value unfair).
VALUES = st.one_of(
    st.just(0.0),
    st.floats(min_value=1.0e-6, max_value=1.0e6),
    st.floats(min_value=-1.0e6, max_value=-1.0e-6),
)

#: A multiset pre-split into worker partitions (some possibly empty).
PARTITIONS = st.lists(st.lists(VALUES, max_size=40), min_size=1, max_size=6)

#: Small bucket cap so compaction actually fires inside the tests.
SKETCH_BUCKETS = 32

#: Nearest-rank quantiles the gauge summary reports.
QUANTILES = (0.0, 0.5, 0.95, 0.99, 1.0)


def _sketch() -> QuantileSketch:
    return QuantileSketch(max_buckets=SKETCH_BUCKETS)


def _state(obj) -> str:
    return json.dumps(obj.to_state(), sort_keys=True)


def _nearest_rank(ordered: list[float], q: float) -> float:
    """The exact quantile under the sketch's own rank convention."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class TestSketchMerge:
    @settings(max_examples=60, deadline=None)
    @given(parts=PARTITIONS)
    def test_merge_is_partition_and_order_invariant(self, parts):
        direct = _sketch()
        for value in (v for part in parts for v in part):
            direct.add(value)
        forward, backward = _sketch(), _sketch()
        partials = []
        for part in parts:
            partial = _sketch()
            for value in part:
                partial.add(value)
            partials.append(partial)
        for partial in partials:
            forward.merge(partial)
        for partial in reversed(partials):
            backward.merge(partial)
        assert _state(forward) == _state(direct)
        assert _state(backward) == _state(direct)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.lists(VALUES, max_size=30),
        b=st.lists(VALUES, max_size=30),
        c=st.lists(VALUES, max_size=30),
    )
    def test_merge_is_associative(self, a, b, c):
        def build(values):
            sketch = _sketch()
            for value in values:
                sketch.add(value)
            return sketch

        left = build(a)
        left.merge(build(b))
        left.merge(build(c))
        right_tail = build(b)
        right_tail.merge(build(c))
        right = build(a)
        right.merge(right_tail)
        assert _state(left) == _state(right)

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(VALUES, min_size=1, max_size=200))
    def test_quantiles_within_documented_bound(self, values):
        sketch = _sketch()
        for value in values:
            sketch.add(value)
        ordered = sorted(values)
        bound = sketch.quantile_error_bound
        for q in QUANTILES:
            truth = _nearest_rank(ordered, q)
            estimate = sketch.quantile(q)
            assert abs(estimate - truth) <= bound * abs(truth) + 1.0e-12


class TestExactMerge:
    @settings(max_examples=60, deadline=None)
    @given(parts=PARTITIONS)
    def test_exact_sum_is_partition_invariant(self, parts):
        direct = ExactSum()
        for value in (v for part in parts for v in part):
            direct.add(value)
        merged = ExactSum()
        for part in reversed(parts):
            partial = ExactSum()
            for value in part:
                partial.add(value)
            merged.merge(partial)
        # Canonical state equality implies value equality — and pins the
        # stronger property that serialized bytes match too.
        assert json.dumps(merged.to_state()) == json.dumps(direct.to_state())

    @settings(max_examples=60, deadline=None)
    @given(parts=PARTITIONS)
    def test_stat_is_partition_invariant(self, parts):
        direct = MergeableStat()
        for value in (v for part in parts for v in part):
            direct.add(value)
        merged = MergeableStat()
        for part in reversed(parts):
            partial = MergeableStat()
            for value in part:
                partial.add(value)
            merged.merge(partial)
        assert _state(merged) == _state(direct)


class TestMergeableStat:
    def test_streams_min_mean_max(self):
        stat = MergeableStat()
        for value in (3.0, 1.0, 2.0):
            stat.add(value)
        assert stat.minimum == 1.0
        assert stat.maximum == 3.0
        assert stat.mean == pytest.approx(2.0)

    def test_empty_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            MergeableStat().mean


class TestHistogramMerge:
    BOUNDS = (
        1.0e-6, 1.0e-5, 1.0e-4, 1.0e-3, 0.01, 0.1,
        1.0, 10.0, 100.0, 1.0e3, 1.0e4, 1.0e5, 1.0e6,
    )

    @settings(max_examples=60, deadline=None)
    @given(parts=PARTITIONS)
    def test_merge_is_partition_and_order_invariant(self, parts):
        direct = MergeableHistogram(self.BOUNDS)
        for value in (v for part in parts for v in part):
            direct.observe(value)
        merged = MergeableHistogram(self.BOUNDS)
        for part in reversed(parts):
            partial = MergeableHistogram(self.BOUNDS)
            for value in part:
                partial.observe(value)
            merged.merge(partial)
        assert _state(merged) == _state(direct)


class TestWindowMerge:
    @settings(max_examples=60, deadline=None)
    @given(
        parts=st.lists(
            st.lists(
                st.tuples(st.floats(0.0, 1.0e4), VALUES),
                max_size=30,
            ),
            min_size=1,
            max_size=5,
        ),
        width=st.sampled_from([1.0, 16.0, 128.0]),
        max_windows=st.sampled_from([0, 4]),
    )
    def test_merge_and_retention_are_partition_invariant(
        self, parts, width, max_windows
    ):
        direct = WindowedAggregator(width, max_windows=max_windows)
        for tick, value in (s for part in parts for s in part):
            direct.add(tick, value)
        merged = WindowedAggregator(width, max_windows=max_windows)
        for part in reversed(parts):
            partial = WindowedAggregator(width, max_windows=max_windows)
            for tick, value in part:
                partial.add(tick, value)
            merged.merge(partial)
        assert _state(merged) == _state(direct)


class TestStreamingGauge:
    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(VALUES, min_size=1, max_size=200))
    def test_streaming_summary_within_bound_of_exact(self, values):
        """Satellite: streaming gauges stay within the documented bound.

        The exact reference is the nearest-rank quantile over the raw
        samples — the same rank convention the sketch uses — so the
        comparison isolates bucketing error from rank-convention skew.
        """
        registry = MetricsRegistry(gauge_mode="streaming")
        gauge = registry.gauge("g")
        for tick, value in enumerate(values):
            gauge.set(value, tick=float(tick))
        ordered = sorted(values)
        summary = gauge.summary()
        bound = gauge.sketch.quantile_error_bound
        for key, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            truth = _nearest_rank(ordered, q)
            assert abs(summary[key] - truth) <= bound * abs(truth) + 1.0e-12
        assert summary["min"] == min(values)  # repro-lint: disable=RL005
        assert summary["max"] == max(values)  # repro-lint: disable=RL005


class TestRegistryMerge:
    @settings(max_examples=30, deadline=None)
    @given(parts=PARTITIONS)
    def test_state_merge_is_partition_and_order_invariant(self, parts):
        """The fleet-rollup contract at the registry level.

        Partial registries (one per worker partition) folded through the
        picklable state form — in either order — reach byte-identical
        state and summary to a single registry observing the union.
        """

        def fill(registry, part, base):
            for offset, value in enumerate(part):
                registry.counter("n").inc()
                registry.histogram("h").observe(abs(value))
                # Explicit global tick: partition-invariant "last".
                registry.gauge("g").set(value, tick=float(base + offset))

        direct = MetricsRegistry(gauge_mode="streaming")
        offsets = []
        base = 0
        for part in parts:
            offsets.append(base)
            fill(direct, part, base)
            base += len(part)
        states = []
        for part, offset in zip(parts, offsets):
            partial = MetricsRegistry(gauge_mode="streaming")
            fill(partial, part, offset)
            states.append(partial.to_state())
        for ordering in (states, list(reversed(states))):
            merged = MetricsRegistry(gauge_mode="streaming")
            for state in ordering:
                merged.merge_state(state)
            assert json.dumps(merged.to_state(), sort_keys=True) == json.dumps(
                direct.to_state(), sort_keys=True
            )
            assert merged.to_summary() == direct.to_summary()


class TestIdentityTick:
    def test_deterministic_and_exactly_representable(self):
        tick = identity_tick("chip-0042")
        assert tick == identity_tick("chip-0042")  # repro-lint: disable=RL005
        assert tick.is_integer()
        assert 0.0 <= tick < float(2**52)

    def test_distinct_identities_get_distinct_ticks(self):
        ticks = {identity_tick(f"chip-{i:04d}") for i in range(100)}
        assert len(ticks) == 100


class TestHistogramQuantileInterpolation:
    def test_default_is_conservative_upper_bound(self):
        hist = MergeableHistogram((1.0, 2.0, 5.0, 10.0))
        for value in (1.0, 2.0, 3.0, 7.0):
            hist.observe(value)
        assert hist.quantile(0.5) == 2.0  # repro-lint: disable=RL005

    def test_interpolated_is_finite_point_estimate(self):
        hist = MergeableHistogram((1.0, 2.0, 5.0, 10.0))
        for value in (1.0, 2.0, 3.0, 7.0):
            hist.observe(value)
        interp = hist.quantile(0.5, interpolate=True)
        assert 1.0 <= interp <= 2.0
        # Overflow bucket: the default answer is inf, the interpolated
        # answer clamps to the observed maximum.
        hist.observe(25.0)
        assert hist.quantile(1.0) == float("inf")  # repro-lint: disable=RL005
        assert hist.quantile(1.0, interpolate=True) == pytest.approx(25.0)
