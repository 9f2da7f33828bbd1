"""Tests for the fleet-scale characterization driver."""

import hashlib
import json

import pytest

from repro.atm.chip_sim import ChipSim, MarginMode
from repro.core import fleet
from repro.core.fleet import (
    DEFAULT_CHUNK_SIZE,
    characterize_fleet,
    collect_chip_stats,
    run_fleet_observed,
)
from repro.errors import ConfigurationError
from repro.fastpath.store import configure_store, reset_store
from repro.obs.runtime import Observability, observed
from repro.obs.sinks import RingBufferSink
from repro.obs.stream.gates import quantile_from_counts
from repro.silicon.chipspec import draw_chips


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

    @pytest.mark.parametrize("n_cores", [257, 4096])
    def test_more_cores_than_a_record_indexes_rejected(self, n_cores, monkeypatch):
        # A characterization record stores a core index in one byte; the
        # core count is checked before any chip is drawn.
        def no_draws(*args, **kwargs):
            raise AssertionError("a chip was drawn")

        monkeypatch.setattr(fleet, "draw_chips", no_draws)
        message = f"^cores must be <= 256, got {n_cores}$"
        with pytest.raises(ConfigurationError, match=message):
            characterize_fleet(1, trials=1, n_cores=n_cores)
        with pytest.raises(ConfigurationError, match=message):
            collect_chip_stats(1, trials=1, n_cores=n_cores)

    def test_256_cores_accepted(self, tmp_path):
        # The widest chip a record holds, characterized and stored.
        configure_store(tmp_path / "store")
        try:
            stats = collect_chip_stats(1, trials=1, n_cores=256)
        finally:
            reset_store()
        assert stats[0].n_cores == 256

    def test_negative_reduction_rejected(self):
        with pytest.raises(ConfigurationError):
            characterize_fleet(2, reduction_steps=-1)

    def test_reduction_requires_atm_mode(self):
        with pytest.raises(ConfigurationError):
            characterize_fleet(2, mode=MarginMode.STATIC, reduction_steps=2)

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_negative_noise_rejected(self, sigma, monkeypatch):
        # NaN used to run noise-free and inf to zero every idle limit;
        # all three fail before any chip is drawn.
        def no_draws(*args, **kwargs):
            raise AssertionError("a chip was drawn")

        monkeypatch.setattr(fleet, "draw_chips", no_draws)
        with pytest.raises(ConfigurationError, match="noise_sigma_ps"):
            characterize_fleet(8, noise_sigma_ps=sigma)
        with pytest.raises(ConfigurationError, match="noise_sigma_ps"):
            collect_chip_stats(8, noise_sigma_ps=sigma)

    def test_reduction_past_a_preset_reads_as_on_chip_sim(self):
        # The fleet checks its rows against the draw, ChipSim against the
        # materialized chip: one check, one message.
        draw = draw_chips(2019, range(1), n_cores=2)[0]
        steps = max(draw.preset_codes) + 1
        with pytest.raises(ConfigurationError) as fleet_error:
            characterize_fleet(1, trials=1, n_cores=2, reduction_steps=steps)
        sim = ChipSim(draw.materialize())
        with pytest.raises(ConfigurationError) as sim_error:
            sim.solve_many([sim.uniform_assignments(reduction_steps=steps)])
        assert str(fleet_error.value) == str(sim_error.value)
        assert str(sim_error.value) == (
            f"{draw.labels[0]}: reduction {steps} exceeds preset "
            f"{draw.preset_codes[0]}"
        )


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

    def test_draws_one_chunk_at_a_time(self, monkeypatch):
        spans = []

        def spy(seed, indices, **kwargs):
            spans.append(indices)
            return draw_chips(seed, indices, **kwargs)

        draw_chips = fleet.draw_chips
        monkeypatch.setattr(fleet, "draw_chips", spy)
        stats = collect_chip_stats(70, trials=1, n_cores=2)
        assert spans and all(len(span) <= DEFAULT_CHUNK_SIZE for span in spans)
        assert [i for span in spans for i in span] == list(range(70))
        # The stats of drawing all 70 chips in one call, taken before the
        # draws were chunked.
        rows = [
            [
                chip.chip_id,
                chip.n_cores,
                sorted(chip.idle_limit_counts.items()),
                sorted(chip.ubench_limit_counts.items()),
                sorted(chip.rollback_counts.items()),
                chip.probe_runs,
            ]
            for chip in stats
        ]
        assert sum(chip.probe_runs for chip in stats) == 2125
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == (
            "49d2f02aabc6adf32cd0669d2e8345aacbbf9a202554a486cb94b0a8e4b70b4e"
        )


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
        # Schema 3: every gauge is summarized from its sketch.
        manifest = json.loads(first.manifest_path.read_text())
        assert manifest["schema"] == 3
        summary = manifest["metrics_summary"]
        assert "chip.solves" in summary
        assert summary["fleet.tuned_slowest_mhz"]["mode"] == "streaming"
        assert not [name for name in summary if name.startswith("fastpath.cache.")]
