"""The chunk characterization pass against the per-chip oracle.

``characterize_chunk`` walks all of a fleet chunk's cold chips at once,
straight from their draws, and the fleet serves every chip through
``replay_characterization``.  Together they must be indistinguishable
from characterizing each materialized chip with its own
``Characterizer`` (:mod:`tests.core.chip_oracle`): the same per-trial
outcomes in the record, the same per-core idle limits and worst
rollbacks from replay, probe counts, record bytes, event lines and
counters, in dark, metrics-only, event-capturing and store-writable
contexts, and through ``run_fleet_observed`` with a store that holds
records for only part of a chunk.  The slack block the pass reads must equal every core's
``CoreSpec.slack_row`` byte for byte.
"""

import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from repro.core.char_record import (
    _slack_block,
    char_key,
    characterize_chunk,
    replay_characterization,
)
from repro.core.fleet import characterize_fleet, run_fleet_observed
from repro.errors import ConfigurationError
from repro.fastpath.cache import reset_solve_cache
from repro.fastpath.store import KIND_CHAR, configure_store, reset_store
from repro.obs.runtime import observed
from repro.obs.sinks import event_to_json_line
from repro.silicon.chipspec import draw_chips
from repro.workloads.base import IDLE
from repro.workloads.ubench import UBENCH_SUITE

from .chip_oracle import REPEATS_PER_STEP, characterize_chip, observability

#: Contexts every case runs in: the three observability kinds, and a
#: dark run with a writable store configured.
CONTEXTS = ("dark", "metrics", "events", "store")


@pytest.fixture(autouse=True)
def _clean_layers():
    reset_store()
    reset_solve_cache()
    yield
    reset_store()
    reset_solve_cache()


def _cold_chunk(seed: int, start: int, size: int, n_cores: int):
    """Draws of fleet chips ``start .. start + size - 1`` and their seeds."""
    indices = range(start, start + size)
    try:
        draws = draw_chips(seed, indices, n_cores=n_cores)
    except ConfigurationError:  # a non-physical chip
        reject()
    return list(draws), [seed + i for i in indices]


def _lines(events) -> list[str]:
    """Event lines of ``events`` as one stream, numbered from 0."""
    return [
        event_to_json_line(dataclasses.replace(event, seq=seq))
        for seq, event in enumerate(events)
    ]


def _chunk_pass(draws, seeds, *, trials, sigma, context):
    """Run the chunk pass in ``context``, then replay each chip in a fresh
    context of the same observability kind."""
    kind = "dark" if context == "store" else context
    with tempfile.TemporaryDirectory() as root:
        if context == "store":
            configure_store(Path(root) / "store")
        with observed(observability(kind)):
            pairs = list(
                characterize_chunk(
                    draws,
                    seeds,
                    trials=trials,
                    repeats_per_step=REPEATS_PER_STEP,
                    noise_sigma_ps=sigma,
                )
            )
        reset_store()
    served = []
    for record, payload in pairs:
        obs = observability(kind)
        with observed(obs):
            idle, rollbacks, probes = replay_characterization(record, obs)
        served.append(
            {
                "record": record,
                "idle": idle,
                "rollbacks": rollbacks,
                "probes": probes,
                "payload": payload,
                "lines": _lines(obs.sink.events()) if kind == "events" else None,
                "metrics": obs.metrics.to_state(),
            }
        )
    return served


def _assert_served_as_oracle(served, want, context):
    labels = list(want["idle"])
    record = served["record"]
    # The record's per-trial outcomes are the oracle's distributions ...
    assert record["labels"] == labels
    assert record["idle"] == {
        label: list(want["idle"][label].distribution.values) for label in labels
    }
    assert record["rollbacks"] == {
        label: list(want["ubench"][label].rollback_distribution.values)
        for label in labels
    }
    # ... and replay's columns are its idle limits and worst rollbacks.
    assert served["idle"] == [want["idle"][label].idle_limit for label in labels]
    assert served["rollbacks"] == [
        want["ubench"][label].rollback_distribution.maximum for label in labels
    ]
    assert served["probes"] == want["probes"]
    if context in ("events", "store"):
        assert served["payload"] == want["payload"]
    else:
        assert served["payload"] is None
    if context == "events":
        assert served["lines"] == _lines(want["events"])
    if context in ("metrics", "events"):
        assert served["metrics"] == want["metrics"]


class TestChunkPassMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        start=st.integers(min_value=0, max_value=20_000),
        size=st.integers(min_value=1, max_value=3),
        n_cores=st.sampled_from((1, 4, 8)),
        trials=st.sampled_from((1, 4)),
        sigma=st.sampled_from((0.0, 0.1, 2.0)),
    )
    def test_chunk_pass_plus_replay_is_the_per_chip_walk(
        self, seed, start, size, n_cores, trials, sigma
    ):
        draws, seeds = _cold_chunk(seed, start, size, n_cores)
        oracle = [
            characterize_chip(
                draw.materialize(), chip_seed, trials=trials, noise_sigma_ps=sigma
            )
            for draw, chip_seed in zip(draws, seeds)
        ]
        for context in CONTEXTS:
            served = _chunk_pass(
                draws, seeds, trials=trials, sigma=sigma, context=context
            )
            assert len(served) == len(draws)
            for got, want in zip(served, oracle):
                _assert_served_as_oracle(got, want, context)

    def test_fleet_sized_chunk(self):
        # Sixteen eight-core chips at the fleet's default trials and noise,
        # as `repro fleet characterize` runs them.
        draws, seeds = _cold_chunk(2019, 0, 16, 8)
        oracle = [
            characterize_chip(draw.materialize(), chip_seed, trials=4, noise_sigma_ps=0.1)
            for draw, chip_seed in zip(draws, seeds)
        ]
        for context in CONTEXTS:
            served = _chunk_pass(draws, seeds, trials=4, sigma=0.1, context=context)
            for got, want in zip(served, oracle):
                _assert_served_as_oracle(got, want, context)

    def test_empty_chunk(self):
        chunk = characterize_chunk(
            [], [], trials=4, repeats_per_step=2, noise_sigma_ps=0.1
        )
        assert list(chunk) == []


class TestSlackBlock:
    STRESSES = (IDLE.stress, *(program.stress for program in UBENCH_SUITE))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        start=st.integers(min_value=0, max_value=20_000),
        size=st.integers(min_value=1, max_value=4),
        n_cores=st.sampled_from((1, 4, 8)),
    )
    def test_block_rows_are_slack_rows(self, seed, start, size, n_cores):
        draws, _ = _cold_chunk(seed, start, size, n_cores)
        presets = np.array([p for draw in draws for p in draw.preset_codes])
        block = _slack_block(draws, presets, self.STRESSES)
        assert sorted(block) == sorted(set(self.STRESSES))
        cores = [core for draw in draws for core in draw.materialize().cores]
        for stress in self.STRESSES:
            rows = block[stress]
            assert rows.dtype == np.float64 and rows.shape[0] == len(cores)
            for row, core in zip(rows, cores):
                # Every reduction 0..preset, as bytes.
                want = core.slack_row(stress)
                assert row[: core.preset_code + 1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("stress", [0.1, 0.6, 0.7, 1.0, 1.5])
    def test_any_stress_interpolates_as_slack_row(self, stress):
        # Between, on and past the stress anchors: np.interp's rule and
        # the final segment's extrapolation.
        draws, _ = _cold_chunk(2019, 0, 4, 8)
        presets = np.array([p for draw in draws for p in draw.preset_codes])
        rows = _slack_block(draws, presets, (stress,))[stress]
        cores = [core for draw in draws for core in draw.materialize().cores]
        for row, core in zip(rows, cores):
            want = core.slack_row(stress)
            assert row[: core.preset_code + 1].tobytes() == want.tobytes()


class TestFleetWithPartialStore:
    CHIPS, TRIALS, CORES = 6, 2, 4

    def _run(self, out_dir):
        return run_fleet_observed(
            self.CHIPS,
            out_dir=out_dir,
            seed=2019,
            trials=self.TRIALS,
            n_cores=self.CORES,
            chunk_size=self.CHIPS,
        )

    def test_chunk_with_some_records_matches_oracle(self, tmp_path):
        plain = self._run(tmp_path / "plain")
        # The store holds records for chips 0-2 only; the one chunk of
        # the next run serves those and characterizes chips 3-5.
        configure_store(tmp_path / "store")
        characterize_fleet(3, seed=2019, trials=self.TRIALS, n_cores=self.CORES)
        reset_solve_cache()
        mixed = self._run(tmp_path / "mixed")
        store = configure_store(tmp_path / "store")
        assert mixed.report.to_dict() == plain.report.to_dict()
        assert mixed.events_path.read_bytes() == plain.events_path.read_bytes()
        assert mixed.manifest_path.read_bytes() == plain.manifest_path.read_bytes()

        events = []
        draws = draw_chips(2019, range(self.CHIPS), n_cores=self.CORES)
        for index, draw in enumerate(draws):
            want = characterize_chip(
                draw.materialize(),
                2019 + index,
                trials=self.TRIALS,
                noise_sigma_ps=0.1,
            )
            key = char_key(
                draw,
                seed=2019 + index,
                trials=self.TRIALS,
                repeats_per_step=REPEATS_PER_STEP,
                noise_sigma_ps=0.1,
                workloads=(IDLE, *UBENCH_SUITE),
            )
            assert bytes(store.get(KIND_CHAR, key)) == want["payload"]
            events += want["events"]
        written = mixed.events_path.read_text().splitlines()
        assert written == _lines(events)
