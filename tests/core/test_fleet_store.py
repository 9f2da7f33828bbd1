"""Golden contract of the persistent solve store on the fleet pipeline.

Same seed ⇒ byte-identical event streams, manifests, and fleet summaries
with the store cold, warm, corrupted, disabled, or shared across pool
workers — the store is a pure accelerator, never a source of physics.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.fleet import (
    characterize_fleet,
    collect_chip_stats,
    run_fleet_observed,
)
from repro.fastpath.cache import reset_solve_cache
from repro.fastpath.store import configure_store, get_store, reset_store
from repro.silicon.chipspec import ChipDraw, ChipSpec

CHIPS = 6
TRIALS = 2
CORES = 4


@pytest.fixture(autouse=True)
def _clean_layers():
    reset_store()
    reset_solve_cache()
    yield
    reset_store()
    reset_solve_cache()


def _fleet(**kwargs):
    return characterize_fleet(
        CHIPS, seed=2019, trials=TRIALS, n_cores=CORES, **kwargs
    )


def _observed(out_dir, **kwargs):
    run = run_fleet_observed(
        CHIPS,
        out_dir=out_dir,
        seed=2019,
        trials=TRIALS,
        n_cores=CORES,
        chunk_size=4,
        **kwargs,
    )
    events = hashlib.sha256(Path(run.events_path).read_bytes()).hexdigest()
    manifest = json.dumps(
        json.loads(Path(run.manifest_path).read_text()), sort_keys=True
    )
    return events, manifest, run.event_count


class TestFleetSummaryIdentity:
    def test_cold_warm_disabled_agree(self, tmp_path):
        disabled = _fleet().to_dict()
        configure_store(tmp_path / "store")
        cold = _fleet().to_dict()
        reset_solve_cache()
        warm = _fleet().to_dict()
        assert cold == disabled
        assert warm == disabled
        stats = get_store().stats()
        assert stats["hits"] > 0
        assert stats["corrupt_entries"] == 0

    def test_warm_run_misses_and_writes_nothing(self, tmp_path):
        configure_store(tmp_path / "store")
        _fleet()
        reset_solve_cache()
        before = get_store().stats()
        _fleet()
        after = get_store().stats()
        assert after["misses"] == before["misses"]
        assert after["writes"] == before["writes"]
        # Everything the warm run needed came from disk: each chip's
        # characterization and its two converged states.
        assert after["hits"] - before["hits"] == 3 * CHIPS

    def test_corrupted_store_falls_back_to_recompute(self, tmp_path):
        reference = _fleet().to_dict()
        store = configure_store(tmp_path / "store")
        _fleet()
        # Flip one byte in every record's tail region: some records now
        # fail their checksum; the run must recompute those chips and
        # still produce identical bytes.
        store.close()
        dat = tmp_path / "store" / "store.dat"
        blob = bytearray(dat.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        dat.write_bytes(bytes(blob))
        store = configure_store(tmp_path / "store")
        reset_solve_cache()
        assert _fleet().to_dict() == reference
        assert get_store().stats()["corrupt_entries"] > 0

    def test_collect_chip_stats_ignores_store_state(self, tmp_path):
        baseline = collect_chip_stats(
            CHIPS, seed=2019, trials=TRIALS, n_cores=CORES
        )
        configure_store(tmp_path / "store")
        _fleet()  # populate char records
        warm = collect_chip_stats(
            CHIPS, seed=2019, trials=TRIALS, n_cores=CORES
        )
        assert warm == baseline
        # The cold fleet hit nothing; each chip's characterization did.
        assert get_store().stats()["hits"] == CHIPS

    def test_growing_fleets_share_one_store(self, tmp_path):
        # Each call reads the records the previous one appended while it
        # still holds the views of earlier ones, so the store remaps its
        # data file under live views.
        sizes = (CHIPS - 2, CHIPS, CHIPS)
        kwargs = {"seed": 2019, "trials": TRIALS, "n_cores": CORES}
        stats = [collect_chip_stats(n, **kwargs) for n in sizes]
        reports = [characterize_fleet(n, **kwargs).to_dict() for n in sizes]
        configure_store(tmp_path / "stats")
        for n, expected in zip(sizes, stats):
            assert collect_chip_stats(n, **kwargs) == expected
        configure_store(tmp_path / "fleet")
        for n, expected in zip(sizes, reports):
            reset_solve_cache()
            assert characterize_fleet(n, **kwargs).to_dict() == expected


class TestObservedRunIdentity:
    def test_events_and_manifests_identical_cold_warm_disabled(self, tmp_path):
        disabled = _observed(tmp_path / "disabled")
        configure_store(tmp_path / "store")
        cold = _observed(tmp_path / "cold")
        warm = _observed(tmp_path / "warm")
        assert disabled[2] > 0
        assert cold == disabled
        assert warm == disabled

    def test_replayed_telemetry_matches_live(self, tmp_path):
        # The store-served characterization replays every CpmStepEvent
        # and RollbackEvent: the warm event stream is byte-identical,
        # not merely the summaries.
        configure_store(tmp_path / "store")
        cold = _observed(tmp_path / "cold")
        warm = _observed(tmp_path / "warm")
        assert get_store().stats()["hits"] == 3 * CHIPS
        assert warm[0] == cold[0]

    def test_jobs_with_store_match_jobs_without(self, tmp_path):
        configure_store(tmp_path / "store")
        _fleet()  # warm the store
        with_store = _observed(tmp_path / "with", jobs=2)
        store_stats = get_store().stats()
        reset_store()
        without = _observed(tmp_path / "without", jobs=2)
        assert with_store == without
        # Worker deltas came home: the pool run's reads are accounted.
        assert store_stats["hits"] > 0

    def test_worker_deltas_show_zero_warm_misses(self, tmp_path):
        configure_store(tmp_path / "store")
        _fleet()
        before = get_store().stats()
        _observed(tmp_path / "run", jobs=2)
        after = get_store().stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] - before["hits"] == 3 * CHIPS


class TestFleetBuildsNoSpec:
    def test_cold_fleet_never_materializes_a_chip(self, tmp_path, monkeypatch):
        # Every chip runs from its draw, cold or store-served: with spec
        # construction refused, a cold fleet still completes, with and
        # without a store, and both runs agree.
        def refuse(self):
            raise AssertionError("the fleet path built a ChipSpec")

        monkeypatch.setattr(ChipDraw, "materialize", refuse)
        monkeypatch.setattr(ChipSpec, "__post_init__", refuse)
        plain = characterize_fleet(70, seed=2019)
        configure_store(tmp_path / "store")
        reset_solve_cache()
        stored = characterize_fleet(70, seed=2019)
        stats = get_store().stats()
        # Each chip's characterization and two states were written.
        assert stats["misses"] == stats["writes"] == 3 * 70
        assert stored.to_dict() == plain.to_dict()
        assert plain.n_chips == 70 and plain.cores_total == 560
