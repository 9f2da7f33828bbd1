"""Tests for fleet health triage (quantile fences over chip stats).

Fleet health moved to :mod:`repro.core.fleet_health`, and its sample
quantile is the shared nearest-rank histogram quantile over a
``Counter``; the tests keep this module so their ids stay stable.
"""

from collections import Counter

import pytest

from repro.core.fleet import ChipStats
from repro.core.fleet_health import assess_fleet, assess_from_stats
from repro.errors import ConfigurationError
from repro.obs.stream.gates import quantile_from_counts


def nearest_rank(values, q):
    """A sample's nearest-rank quantile: the histogram form over a Counter."""
    return quantile_from_counts(Counter(values), q)

SEED = 2019


def _chip(chip_id, limit, rollback=0, n_cores=4):
    counts = {limit: n_cores}
    return ChipStats(
        chip_id=chip_id,
        n_cores=n_cores,
        idle_limit_counts=dict(counts),
        ubench_limit_counts=dict(counts),
        rollback_counts={rollback: n_cores},
        probe_runs=n_cores * 2,
    )


class TestNearestRank:
    def test_exact_sample_values_only(self):
        values = [3.0, 1.0, 2.0]
        assert nearest_rank(values, 0.5) == 2.0
        assert nearest_rank(values, 0.0) == 1.0
        assert nearest_rank(values, 1.0) == 3.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            nearest_rank([], 0.5)

    def test_out_of_range_quantile_rejected(self):
        with pytest.raises(ConfigurationError):
            nearest_rank([1.0], 1.5)


class TestAssessFromStats:
    def test_uniform_fleet_has_no_outliers(self):
        stats = [_chip(f"F{i}", limit=6) for i in range(8)]
        report = assess_from_stats(stats, seed=SEED, trials=4)
        assert report.outliers == ()
        assert all(chip.healthy for chip in report.chips)

    def test_weak_chip_trips_low_limit_fences(self):
        # The weak chip must hold < 10% of the fleet's cores, or its own
        # mass drags p10 down and legitimately widens the fence.
        stats = [_chip(f"F{i:02d}", limit=8) for i in range(19)] + [
            _chip("F19", limit=0)
        ]
        report = assess_from_stats(stats, seed=SEED, trials=4)
        assert report.outliers == ("F19",)
        flagged = report.chips[-1]
        assert "low_idle_limit" in flagged.flags
        assert "low_ubench_limit" in flagged.flags

    def test_rollback_heavy_chip_flagged(self):
        stats = [_chip(f"F{i}", limit=8, rollback=0) for i in range(9)]
        heavy = ChipStats(
            chip_id="F9",
            n_cores=4,
            idle_limit_counts={8: 4},
            ubench_limit_counts={8: 4},
            rollback_counts={3: 4},  # every core rolled back
            probe_runs=8,
        )
        report = assess_from_stats(stats + [heavy], seed=SEED, trials=4)
        assert "high_rollback_rate" in report.chips[-1].flags

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            assess_from_stats([], seed=SEED, trials=4)

    @pytest.mark.parametrize(
        "fence_k", [0.0, -1.0, float("nan"), float("inf")]
    )
    def test_non_positive_fence_rejected(self, fence_k):
        with pytest.raises(ConfigurationError, match="fence k"):
            assess_from_stats(
                [_chip("F0", 5)], seed=SEED, trials=4, fence_k=fence_k
            )

    def test_to_dict_is_json_native_and_labeled(self):
        report = assess_from_stats(
            [_chip("F0", 5), _chip("F1", 6)], seed=SEED, trials=4
        )
        document = report.to_dict()
        assert document["kind"] == "fleet_health"
        assert document["schema"] == 1
        assert list(document["idle_limit_counts"]) == ["5", "6"]
        assert document["outliers"] == []


class TestAssessFleet:
    def test_same_seed_reports_are_identical(self):
        first = assess_fleet(4, seed=SEED, trials=2, n_cores=2)
        second = assess_fleet(4, seed=SEED, trials=2, n_cores=2)
        assert first == second
        assert first.to_dict() == second.to_dict()
        assert first.render() == second.render()

    def test_render_names_every_chip(self):
        report = assess_fleet(3, seed=SEED, trials=2, n_cores=2)
        text = report.render()
        for chip in report.chips:
            assert chip.chip_id in text
        assert "fences:" in text
