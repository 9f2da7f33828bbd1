"""Tests for the fleet-scale characterization driver."""

import json

import pytest

from repro.atm.chip_sim import MarginMode
from repro.core.fleet import (
    characterize_fleet,
    collect_chip_stats,
    quantile_from_counts,
    run_fleet_observed,
)
from repro.errors import ConfigurationError
from repro.obs.runtime import Observability, observed
from repro.obs.sinks import RingBufferSink


class TestQuantileFromCounts:
    def test_nearest_rank_on_histogram(self):
        counts = {1: 2, 3: 5, 7: 3}  # 10 samples: 1,1,3,3,3,3,3,7,7,7
        assert quantile_from_counts(counts, 0.10) == 1
        assert quantile_from_counts(counts, 0.50) == 3
        assert quantile_from_counts(counts, 0.90) == 7
        assert quantile_from_counts(counts, 0.0) == 1
        assert quantile_from_counts(counts, 1.0) == 7

    def test_single_bucket(self):
        assert quantile_from_counts({4: 9}, 0.5) == 4

    def test_empty_histogram_rejected(self):
        with pytest.raises(ConfigurationError):
            quantile_from_counts({}, 0.5)

    def test_out_of_range_quantile_rejected(self):
        with pytest.raises(ConfigurationError):
            quantile_from_counts({1: 1}, 1.5)


class TestFleetValidation:
    def test_zero_chips_rejected(self):
        with pytest.raises(ConfigurationError):
            characterize_fleet(0)

    def test_negative_chips_rejected(self):
        with pytest.raises(ConfigurationError):
            characterize_fleet(-3)

    def test_zero_chunk_rejected(self):
        with pytest.raises(ConfigurationError):
            characterize_fleet(2, chunk_size=0)

    def test_zero_trials_rejected(self):
        with pytest.raises(ConfigurationError):
            characterize_fleet(2, trials=0)

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            characterize_fleet(2, n_cores=0)

    def test_negative_reduction_rejected(self):
        with pytest.raises(ConfigurationError):
            characterize_fleet(2, reduction_steps=-1)

    def test_reduction_requires_atm_mode(self):
        with pytest.raises(ConfigurationError):
            characterize_fleet(2, mode=MarginMode.STATIC, reduction_steps=2)


class TestCharacterizeFleet:
    def test_chunking_is_invisible(self):
        """Results are a pure function of (seed, n_chips): the chunk size
        only changes memory/speed, never the aggregate."""
        chunked = characterize_fleet(5, chunk_size=2, trials=2, n_cores=4)
        uneven = characterize_fleet(5, chunk_size=3, trials=2, n_cores=4)
        whole = characterize_fleet(5, chunk_size=5, trials=2, n_cores=4)
        assert chunked.to_dict() == whole.to_dict()
        assert uneven.to_dict() == whole.to_dict()

    def test_core_accounting_and_quantile_ordering(self):
        report = characterize_fleet(3, trials=2, n_cores=4)
        assert report.cores_total == 12
        assert sum(report.idle_limit_counts.values()) == 12
        assert sum(report.ubench_limit_counts.values()) == 12
        assert 0.0 <= report.rollback_rate <= 1.0
        assert report.limit_quantile("idle", 0.1) <= report.limit_quantile(
            "idle", 0.9
        )
        # Fine-tuning lifts the fleet's mean frequency (the paper's point);
        # individual cores may dip marginally via the shared IR drop.
        assert report.tuned_freq_mean_mhz > report.baseline_freq_mean_mhz

    def test_unknown_histogram_rejected(self):
        report = characterize_fleet(2, trials=2, n_cores=2)
        with pytest.raises(ConfigurationError):
            report.limit_quantile("thermal", 0.5)

    def test_metrics_include_quantile_keys(self):
        report = characterize_fleet(2, trials=2, n_cores=2)
        metrics = report.metrics()
        assert metrics["chips"] == 2.0
        for name in ("idle", "ubench", "rollback"):
            for pct in ("p10", "p50", "p90"):
                assert f"{name}_{pct}_steps" in metrics

    def test_render_summarizes_distributions(self):
        text = characterize_fleet(2, trials=2, n_cores=2).render()
        assert "fleet characterization: 2 chips x 2 cores" in text
        assert "rollback rate:" in text
        assert "probe runs:" in text

    def test_feeds_fleet_obs_instruments(self):
        obs = Observability(RingBufferSink())
        with observed(obs):
            characterize_fleet(3, trials=2, n_cores=2)
        summary = obs.metrics.to_summary()
        assert summary["fleet.chips"]["value"] == 3
        assert summary["fleet.cores"]["value"] == 6
        assert summary["fleet.idle_limit_steps"]["count"] == 6


class TestCollectChipStats:
    def test_agrees_with_characterize_fleet_histograms(self):
        """The stats path shares the per-chip recipe with the full driver,
        so summing its per-chip counts reproduces the fleet aggregates."""
        stats = collect_chip_stats(3, trials=2, n_cores=2)
        report = characterize_fleet(3, trials=2, n_cores=2)
        summed: dict[int, int] = {}
        for chip in stats:
            for steps, count in chip.idle_limit_counts.items():
                summed[steps] = summed.get(steps, 0) + count
        assert summed == report.idle_limit_counts
        assert sum(chip.probe_runs for chip in stats) == report.probe_runs

    def test_per_chip_digest_properties(self):
        stats = collect_chip_stats(2, trials=2, n_cores=2)
        assert [chip.chip_id for chip in stats] == ["F0", "F1"]
        for chip in stats:
            assert chip.n_cores == 2
            assert sum(chip.idle_limit_counts.values()) == 2
            assert 0.0 <= chip.rollback_rate <= 1.0
            assert chip.min_ubench_steps <= chip.mean_ubench_steps

    def test_invalid_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            collect_chip_stats(0)


class TestRunFleetObserved:
    def test_artifacts_are_deterministic(self, tmp_path):
        first = run_fleet_observed(
            3, out_dir=tmp_path / "a", trials=2, n_cores=2
        )
        second = run_fleet_observed(
            3, out_dir=tmp_path / "b", trials=2, n_cores=2
        )
        assert first.events_path.read_bytes() == second.events_path.read_bytes()
        assert (
            first.manifest_path.read_bytes() == second.manifest_path.read_bytes()
        )
        assert first.event_count > 0
        # Schema 2: memo traffic is execution-scoped, physics counters stay.
        manifest = json.loads(first.manifest_path.read_text())
        assert manifest["schema"] == 2
        summary = manifest["metrics_summary"]
        assert "chip.solves" in summary
        assert not [name for name in summary if name.startswith("fastpath.cache.")]
