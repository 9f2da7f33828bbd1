"""Tests for the persistent content-addressed solve store.

Covers the record codecs, the append-only segment layout, corruption
fallback (truncated tails, flipped checksum bytes, version-mismatched
headers must read as misses — never crash, never serve bad physics),
prune compaction, stats transport, and the draw-layer content addresses
the store keys on.
"""

import math
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.atm.chip_sim import ChipSim, CoreAssignment
from repro.core.char_record import char_key
from repro.core.fleet import characterize_fleet
from repro.errors import ConfigurationError
from repro.fastpath.cache import reset_solve_cache
from repro.fastpath.compiled import compile_draw, fingerprint_from_draw, fingerprint_of
from repro.fastpath.population import solve_chips_cached
from repro.fastpath.store import (
    KIND_CHAR,
    KIND_STATE,
    STAT_KEYS,
    SolveStore,
    configure_store,
    decode_state,
    diff_stats,
    encode_state,
    get_store,
    reset_store,
    state_key,
)
from repro.silicon.chipspec import ChipSpec, CoreSpec, draw_chip, draw_chips, sample_chip
from repro.silicon.paths import PathTimingModel
from repro.silicon.process import ProcessVariationModel
from repro.workloads.base import IDLE
from repro.workloads.ubench import UBENCH_SUITE

from ..silicon.scalar_draw import draw_fields, scalar_draw_chips
from .retired_records import append_retired


@pytest.fixture(autouse=True)
def _no_global_store():
    reset_store()
    yield
    reset_store()


def _store(tmp_path, **kwargs):
    return SolveStore(tmp_path / "store", **kwargs)


def _key(hex_pair: str) -> bytes:
    return bytes.fromhex(hex_pair * 32)


def _drawn(draw_fn, seed, indices, **kwargs):
    """Every field of each draw, or the message of the
    ``ConfigurationError`` raised."""
    try:
        return [draw_fields(draw) for draw in draw_fn(seed, indices, **kwargs)]
    except ConfigurationError as error:
        return str(error)


#: A model where about one chip in four is non-physical.
_OFTEN_NONPHYSICAL = ProcessVariationModel(step_width_median_ps=12.0)


class TestDrawLayer:
    def test_draw_materializes_the_sampled_chip(self):
        for seed in (2019, 7, 12345):
            assert draw_chip(seed).materialize() == sample_chip(seed)

    def test_draw_fingerprint_matches_compiled_fingerprint(self):
        draw = draw_chip(2019, chip_id="F0")
        assert fingerprint_from_draw(draw) == fingerprint_of(draw.materialize())

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        start=st.integers(min_value=0, max_value=20_000),
        count=st.integers(min_value=1, max_value=5),
        n_cores=st.sampled_from((1, 4, 8, 16)),
        variation=st.sampled_from(
            (None, ProcessVariationModel(max_delay_code=24), _OFTEN_NONPHYSICAL)
        ),
    )
    def test_draw_chips_batch_matches_per_index_draws(
        self, seed, start, count, n_cores, variation
    ):
        # Bit-identical to the per-chip, per-core reference draw, errors
        # included; the one-chip call is the same code.
        indices = range(start, start + count)
        kwargs = dict(n_cores=n_cores, variation=variation)
        batch = _drawn(draw_chips, seed, indices, **kwargs)
        assert batch == _drawn(scalar_draw_chips, seed, indices, **kwargs)
        if isinstance(batch, str):
            return
        for index, draw in zip(indices, draw_chips(seed, indices, **kwargs)):
            single = draw_chip(seed + index, chip_id=f"F{index}", **kwargs)
            assert draw_fields(draw) == draw_fields(single)
            assert fingerprint_from_draw(draw) == fingerprint_of(draw.materialize())

    def test_fleet_cold_fleet_matches_the_oracle(self):
        # The 2560 chips the e2e fleet_cold workload draws at seed 2019.
        assert _drawn(draw_chips, 2019, range(2560)) == _drawn(
            scalar_draw_chips, 2019, range(2560)
        )

    def test_fleet_cold_draw_memory_is_bounded(self):
        # Drawing fleet_cold's 2560 chips in one call peaked at 31.6 MB
        # of traced allocations when every draw held nested tuples; block
        # arrays filled 64 chips at a time must stay under half of that.
        draw_chips(2019, range(1))  # lazy imports and per-shape caches
        tracemalloc.start()
        try:
            draws = draw_chips(2019, range(2560))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(draws) == 2560
        assert peak <= 15.8e6

    def test_chunk_names_the_first_nonphysical_chip(self):
        # F10322 is the first non-physical fleet chip at seed 2019.
        message = _drawn(scalar_draw_chips, 2019, range(10300, 10364))
        assert message == "F10322 core 4: sampled chip is non-physical"
        with pytest.raises(ConfigurationError, match=f"^{message}$"):
            draw_chips(2019, range(10300, 10364))
        # Several chips of this chunk are non-physical; the lowest-index
        # one is named.
        message = _drawn(scalar_draw_chips, 7, range(12), variation=_OFTEN_NONPHYSICAL)
        assert message == "F3 core 6: sampled chip is non-physical"
        assert _drawn(draw_chips, 7, range(12), variation=_OFTEN_NONPHYSICAL) == message

    @pytest.mark.parametrize(
        "seed, indices, kwargs",
        [
            # Underflowing speed factors and non-physical chips interleave.
            (7, range(6), dict(variation=ProcessVariationModel(die_sigma=400.0))),
            (7, range(3, 6), dict(variation=ProcessVariationModel(die_sigma=400.0))),
            (2019, range(3), dict(variation=ProcessVariationModel(step_width_median_ps=200.0))),
            (-2, range(5), {}),
            (2019, range(3), dict(n_cores=0)),
        ],
    )
    def test_errors_match_the_oracle(self, seed, indices, kwargs):
        message = _drawn(scalar_draw_chips, seed, indices, **kwargs)
        assert isinstance(message, str)
        assert _drawn(draw_chips, seed, indices, **kwargs) == message

    def test_nonphysical_draw_rejected(self):
        # Extreme variation produces chips draw_chip must refuse, with
        # the same error sample_chip raises.
        wild = ProcessVariationModel(step_width_median_ps=200.0)
        with pytest.raises(ConfigurationError, match="non-physical"):
            draw_chip(2019, variation=wild)


def _two_core_chip(widths_a, widths_b):
    path = PathTimingModel(base_delay_ps=180.0)
    curve = ((0.0, 0.0), (1.0, 1.0))
    return ChipSpec(
        chip_id="K0",
        cores=(
            CoreSpec("K0C0", path, 1, widths_a, 2.0, curve),
            CoreSpec("K0C1", path, 1, widths_b, 2.0, curve),
        ),
    )


def _char_key(draw):
    return char_key(
        draw,
        seed=2019,
        trials=4,
        repeats_per_step=2,
        noise_sigma_ps=0.1,
        workloads=(IDLE, *UBENCH_SUITE),
    )


class TestStoreKeys:
    def test_fingerprint_separates_table_splits(self):
        # The same concatenated widths split differently across cores.
        split_a = _two_core_chip((1.0, 2.0, 3.0), (4.0,))
        split_b = _two_core_chip((1.0, 2.0), (3.0, 4.0))
        assert fingerprint_of(split_a) != fingerprint_of(split_b)

    def test_one_ulp_step_width_changes_both_keys(self):
        draw = draw_chip(2019, chip_id="F0")
        # A second draw of the chip owns its own block to bump.
        bumped = draw_chip(2019, chip_id="F0")
        widths = bumped.block.step_widths_ps[bumped.row]
        widths[3, 17] = math.nextafter(widths[3, 17], math.inf)
        assert bumped.step_widths_ps[3][17] > draw.step_widths_ps[3][17]
        assert fingerprint_from_draw(bumped) != fingerprint_from_draw(draw)
        assert fingerprint_of(bumped.materialize()) == fingerprint_from_draw(bumped)
        assert _char_key(bumped) != _char_key(draw)

    def test_one_ulp_stress_point_changes_the_char_key(self):
        draw = draw_chip(2019, chip_id="F0")
        bumped = draw_chip(2019, chip_id="F0")
        curves = bumped.block.stress_curves[bumped.row]
        curves[5, 2, 1] = math.nextafter(curves[5, 2, 1], 0.0)
        assert bumped.stress_curves[5][2][1] < draw.stress_curves[5][2][1]
        assert _char_key(bumped) != _char_key(draw)
        # The solver never reads a stress curve, so its address holds.
        assert fingerprint_from_draw(bumped) == fingerprint_from_draw(draw)


class TestRecordCodecs:
    def test_state_round_trip_is_bit_exact(self):
        chip = sample_chip(2019)
        sim = ChipSim(chip)
        row = sim.uniform_assignments(reduction_steps=1)
        state = sim.solve_steady_state(row)
        decoded = decode_state(encode_state(state), row)
        assert decoded is not None
        assert [f.hex() for f in decoded.freqs_mhz] == [
            f.hex() for f in state.freqs_mhz
        ]
        assert decoded.chip_power_w.hex() == state.chip_power_w.hex()
        assert decoded.vdd.hex() == state.vdd.hex()
        assert decoded.temperature_c.hex() == state.temperature_c.hex()
        assert decoded.iterations == state.iterations
        assert decoded.assignments == row

    def test_decode_rejects_garbage(self):
        assert decode_state(b"nope", ()) is None


class TestSolveStore:
    def test_round_trip_and_stats(self, tmp_path):
        store = _store(tmp_path)
        key = _key("ab")
        assert store.get(KIND_STATE, key) is None
        assert store.put(KIND_STATE, key, b"payload-1")
        assert bytes(store.get(KIND_STATE, key)) == b"payload-1"
        stats = store.stats()
        assert stats == {
            "hits": 1, "misses": 1, "writes": 1, "corrupt_entries": 0, "entries": 1
        }
        store.close()

    def test_last_write_wins(self, tmp_path):
        store = _store(tmp_path)
        key = _key("cd")
        store.put(KIND_STATE, key, b"old")
        store.put(KIND_STATE, key, b"new")
        assert bytes(store.get(KIND_STATE, key)) == b"new"
        store.close()
        # Reopened: the index replays in order, so "new" still wins.
        again = _store(tmp_path)
        assert bytes(again.get(KIND_STATE, key)) == b"new"
        again.close()

    def test_kinds_are_distinct_namespaces(self, tmp_path):
        store = _store(tmp_path)
        key = _key("ee")
        store.put(KIND_CHAR, key, b"char")
        store.put(KIND_STATE, key, b"state")
        assert bytes(store.get(KIND_CHAR, key)) == b"char"
        assert bytes(store.get(KIND_STATE, key)) == b"state"
        store.close()

    def test_read_only_store_never_writes(self, tmp_path):
        writer = _store(tmp_path)
        key = _key("99")
        writer.put(KIND_STATE, key, b"payload")
        writer.close()
        reader = _store(tmp_path, writable=False)
        assert bytes(reader.get(KIND_STATE, key)) == b"payload"
        assert not reader.put(KIND_STATE, _key("aa"), b"x")
        assert reader.stats()["writes"] == 0
        reader.close()

    def test_remap_while_an_earlier_view_is_alive(self, tmp_path):
        # A record appended after the data file was mapped needs a new
        # mapping; a view of an earlier record must neither block that
        # nor go stale.
        store = _store(tmp_path)
        first, second = _key("a1"), _key("b2")
        store.put(KIND_STATE, first, b"first")
        held = store.get(KIND_STATE, first)
        store.put(KIND_STATE, second, b"second")
        assert bytes(store.get(KIND_STATE, second)) == b"second"
        assert bytes(held) == b"first"
        store.close()
        assert bytes(held) == b"first"

    def test_truncated_final_record_reads_as_miss(self, tmp_path):
        store = _store(tmp_path)
        key = _key("12")
        store.put(KIND_STATE, key, b"x" * 64)
        store.close()
        dat = tmp_path / "store" / "store.dat"
        dat.write_bytes(dat.read_bytes()[:-8])  # torn final append
        again = _store(tmp_path)
        assert again.get(KIND_STATE, key) is None
        assert again.stats()["corrupt_entries"] == 1
        # The corrupt record is dropped: a second read is a plain miss.
        assert again.get(KIND_STATE, key) is None
        assert again.stats()["corrupt_entries"] == 1
        again.close()

    def test_flipped_payload_byte_reads_as_miss(self, tmp_path):
        store = _store(tmp_path)
        key = _key("34")
        store.put(KIND_STATE, key, b"y" * 64)
        store.close()
        dat = tmp_path / "store" / "store.dat"
        blob = bytearray(dat.read_bytes())
        blob[-1] ^= 0xFF  # checksum no longer matches
        dat.write_bytes(bytes(blob))
        again = _store(tmp_path)
        assert again.get(KIND_STATE, key) is None
        assert again.stats()["corrupt_entries"] == 1
        again.close()

    def test_version_mismatched_index_is_unusable_not_fatal(self, tmp_path):
        store = _store(tmp_path)
        key = _key("56")
        store.put(KIND_STATE, key, b"z" * 32)
        store.close()
        idx = tmp_path / "store" / "store.idx"
        blob = bytearray(idx.read_bytes())
        struct.pack_into("<I", blob, 8, 999)  # future format version
        idx.write_bytes(bytes(blob))
        again = _store(tmp_path)
        assert not again.usable
        assert again.get(KIND_STATE, key) is None
        assert again.put(KIND_STATE, key, b"w") is False
        assert again.stats()["corrupt_entries"] >= 1
        report = again.verify()
        assert report["usable"] is False
        assert report["corrupt"] >= 1
        again.close()

    def test_verify_counts_and_drops_corruption(self, tmp_path):
        store = _store(tmp_path)
        keys = [_key(f"{i:02x}") for i in range(3)]
        for key in keys:
            store.put(KIND_STATE, key, b"k" * 48)
        store.close()
        dat = tmp_path / "store" / "store.dat"
        blob = bytearray(dat.read_bytes())
        blob[-1] ^= 0x01  # corrupt only the final record
        dat.write_bytes(bytes(blob))
        again = _store(tmp_path)
        report = again.verify()
        # The corrupt record is counted and dropped from the live index.
        assert report["corrupt"] == 1
        assert report["entries"] == 2
        assert report["entries_by_kind"] == {"state": 2, "char": 0}
        again.close()

    def test_prune_compacts_and_enforces_budget(self, tmp_path):
        store = _store(tmp_path)
        keys = [_key(f"{i:02x}") for i in range(4)]
        for key in keys:
            store.put(KIND_STATE, key, b"p" * 64)
        store.put(KIND_STATE, keys[0], b"q" * 64)  # supersede
        before = store.verify()
        assert before["unreferenced_bytes"] > 0
        report = store.prune()
        assert report["kept"] == 4
        assert store.verify()["unreferenced_bytes"] == 0
        # Budgeted prune drops oldest-first but keeps the store readable.
        report = store.prune(max_bytes=16 + 2 * 64)
        assert report["kept"] < 4
        assert bytes(store.get(KIND_STATE, keys[0])) == b"q" * 64
        store.close()

    def test_retired_kind_is_skipped_then_pruned(self, tmp_path):
        # A store written while kind 1 held compiled tables: its entries
        # are not indexed, their bytes are reclaimable, and the records
        # of the kinds still in use keep serving before and after prune.
        store = _store(tmp_path)
        store.put(KIND_STATE, _key("01"), b"s" * 40)
        store.put(KIND_CHAR, _key("02"), b"c" * 24)
        store.close()
        retired = append_retired(tmp_path / "store", _key("03"), b"t" * 100)
        retired += append_retired(tmp_path / "store", _key("01"), b"u" * 52)
        again = _store(tmp_path)
        report = again.verify()
        assert (report["entries"], report["corrupt"]) == (2, 0)
        assert report["entries_by_kind"] == {"state": 1, "char": 1}
        assert report["unreferenced_bytes"] == retired
        assert again.stats()["corrupt_entries"] == 0
        assert again.prune()["kept"] == 2
        assert again.verify()["unreferenced_bytes"] == 0
        assert again.dat_path.stat().st_size == report["data_bytes"] - retired
        assert bytes(again.get(KIND_STATE, _key("01"))) == b"s" * 40
        assert bytes(again.get(KIND_CHAR, _key("02"))) == b"c" * 24
        again.close()

    def test_prune_refuses_read_only(self, tmp_path):
        _store(tmp_path).close()  # create
        reader = _store(tmp_path, writable=False)
        with pytest.raises(ConfigurationError):
            reader.prune()
        reader.close()

    def test_diff_and_merge_stats(self, tmp_path):
        store = _store(tmp_path)
        key = _key("77")
        before = store.stats()
        store.put(KIND_STATE, key, b"v")
        store.get(KIND_STATE, key)
        store.get(KIND_CHAR, key)
        delta = diff_stats(store.stats(), before)
        assert delta == {"hits": 1, "misses": 1, "writes": 1, "corrupt_entries": 0}
        other = _store(tmp_path)
        other.merge_stats(delta)
        merged = other.stats()
        for name in STAT_KEYS:
            assert merged[name] == delta[name]
        store.close()
        other.close()


class TestGlobalStore:
    def test_configure_get_reset(self, tmp_path):
        assert get_store() is None
        store = configure_store(tmp_path / "s")
        assert get_store() is store
        reset_store()
        assert get_store() is None

    def test_compile_draw_round_trips_through_store(self, tmp_path):
        # The store holds no tables: a chip's converged states round-trip
        # under the fingerprint each compile_draw of its draw computes,
        # and compiling makes no store call of its own.
        store = configure_store(tmp_path / "s")
        draw = draw_chip(2019, chip_id="F0")
        rows = [
            (CoreAssignment(reduction_steps=steps),) * draw.n_cores
            for steps in (0, 1)
        ]
        reset_solve_cache()
        cold = compile_draw(draw)
        assert store.stats()["writes"] == 0
        (live,) = solve_chips_cached([(cold, rows, None)])
        reset_solve_cache()
        before = store.stats()
        warm = compile_draw(draw)
        assert store.stats() == before
        (stored,) = solve_chips_cached([(warm, rows, None)])
        reset_solve_cache()
        assert warm.fingerprint == cold.fingerprint
        assert stored == live
        after = store.stats()
        # Two states written by the cold solve, read back by the warm one.
        assert (after["misses"], after["writes"], after["hits"]) == (2, 2, 2)

    def test_state_key_separates_rows_and_warmth(self):
        chip = sample_chip(2019)
        sim = ChipSim(chip)
        fp = fingerprint_of(chip)
        row_a = sim.uniform_assignments(reduction_steps=0)
        row_b = sim.uniform_assignments(reduction_steps=1)
        state = sim.solve_steady_state(row_a)
        keys = {
            state_key(fp, row_a, None),
            state_key(fp, row_b, None),
            state_key(fp, row_a, state),
        }
        assert len(keys) == 3


class TestRejectedRecords:
    """A record its decoder refuses reads as a miss in ``store.stats()``.

    The store's stats are the one ledger of its traffic, and the
    recomputed result must be the one a run without a store produces.
    """

    def test_state(self, tmp_path):
        sim = ChipSim(sample_chip(2019, chip_id="R0"))
        row = sim.uniform_assignments()
        reset_solve_cache()
        expected = sim.solve_steady_state(row)
        store = configure_store(tmp_path / "store")
        store.put(KIND_STATE, state_key(sim.compiled.fingerprint, row, None), bytes(8))
        reset_solve_cache()
        state = sim.solve_steady_state(row)
        reset_solve_cache()
        assert state == expected
        stats = store.stats()
        assert (stats["hits"], stats["misses"]) == (0, 1)

    def test_char(self, tmp_path):
        fleet = {"seed": 2019, "trials": 1, "n_cores": 2}
        reset_solve_cache()
        expected = characterize_fleet(1, **fleet).to_dict()
        draw = draw_chips(2019, range(1), n_cores=2)[0]
        key = char_key(
            draw,
            seed=2019,
            trials=1,
            repeats_per_step=2,
            noise_sigma_ps=0.1,
            workloads=(IDLE, *UBENCH_SUITE),
        )
        store = configure_store(tmp_path / "store")
        store.put(KIND_CHAR, key, bytes(64))
        reset_solve_cache()
        report = characterize_fleet(1, **fleet)
        reset_solve_cache()
        assert report.to_dict() == expected
        stats = store.stats()
        # The rejected characterization record and the chip's two states.
        assert (stats["hits"], stats["misses"]) == (0, 3)
