"""Tests for the shared quantile, fence and ratio gate (``obs.stream.gates``)."""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.obs.stream.gates import (
    exceeds_ratio_gate,
    quantile_fence,
    quantile_from_counts,
)


class TestQuantileFromCounts:
    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1.0e6, max_value=1.0e6), min_size=1, max_size=60
        ),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_counter_form_is_the_sample_nearest_rank(self, values, q):
        ordered = sorted(values)
        truth = ordered[max(1, math.ceil(q * len(ordered))) - 1]
        assert quantile_from_counts(Counter(values), q) == truth

    def test_non_finite_quantile_rejected(self):
        with pytest.raises(ConfigurationError):
            quantile_from_counts({1: 1}, float("nan"))


class TestQuantileFence:
    # 10 samples: 1,1,3,3,3,3,3,7,7,7 -> p10 = 1, p50 = 3, p90 = 7.
    COUNTS = {1: 2, 3: 5, 7: 3}

    def test_low_and_high_fences(self):
        assert quantile_fence(self.COUNTS, k=1.5, op="below", floor=1.0) == -0.0
        assert quantile_fence(self.COUNTS, k=1.5, op="above", floor=1.0) == 9.0

    def test_floor_widens_a_tight_distribution(self):
        tight = {5: 10}
        assert quantile_fence(tight, k=2.0, op="below", floor=1.0) == 3.0
        assert quantile_fence(tight, k=2.0, op="above", floor=0.25) == 5.5

    def test_unknown_op_rejected(self):
        with pytest.raises(ConfigurationError):
            quantile_fence(self.COUNTS, k=1.5, op="sideways", floor=1.0)


class TestExceedsRatioGate:
    def test_needs_both_ratio_and_delta(self):
        assert exceeds_ratio_gate(3.0, 1.0, threshold=2.0, min_delta=0.5)
        assert not exceeds_ratio_gate(3.0, 1.0, threshold=2.0, min_delta=5.0)
        assert not exceeds_ratio_gate(1.5, 1.0, threshold=2.0, min_delta=0.0)

    def test_zero_base(self):
        assert exceeds_ratio_gate(1.0, 0.0, threshold=2.0, min_delta=0.0)
        assert not exceeds_ratio_gate(0.0, 0.0, threshold=2.0, min_delta=0.0)

    def test_non_positive_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            exceeds_ratio_gate(1.0, 1.0, threshold=0.0)

    @pytest.mark.parametrize(
        "threshold, min_delta",
        [(math.nan, 0.0), (math.inf, 0.0), (2.0, math.nan), (2.0, math.inf), (2.0, -0.005)],
    )
    def test_non_finite_or_negative_bounds_rejected(self, threshold, min_delta):
        # A NaN or infinite bound never trips (NaN compares false against
        # everything), so a tripled value would pass silently; a negative
        # floor is no floor.
        with pytest.raises(ConfigurationError):
            exceeds_ratio_gate(3.0, 1.0, threshold=threshold, min_delta=min_delta)
