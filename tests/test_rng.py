"""Tests for deterministic RNG stream management."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.rng import (
    RngStreams,
    _derive_seed,
    _pcg64_state_words,
    _state_words_type,
)


class TestReproducibility:
    def test_same_seed_same_draws(self):
        a = RngStreams(7).stream("x").random(5)
        b = RngStreams(7).stream("x").random(5)
        assert (a == b).all()

    def test_different_seeds_differ(self):
        a = RngStreams(7).stream("x").random(5)
        b = RngStreams(8).stream("x").random(5)
        assert not (a == b).all()

    def test_different_names_independent(self):
        streams = RngStreams(7)
        a = streams.stream("a").random(5)
        b = streams.stream("b").random(5)
        assert not (a == b).all()

    def test_adding_stream_does_not_perturb_existing(self):
        s1 = RngStreams(7)
        first = s1.stream("alpha").random(3)

        s2 = RngStreams(7)
        s2.stream("unrelated")  # extra consumer created first
        second = s2.stream("alpha").random(3)
        assert (first == second).all()


class TestStreamIdentity:
    def test_same_name_same_object(self):
        streams = RngStreams(0)
        assert streams.stream("x") is streams.stream("x")

    def test_fresh_restarts_sequence(self):
        streams = RngStreams(0)
        first = streams.stream("x").random(4)
        streams.stream("x").random(10)  # advance
        restarted = streams.fresh("x").random(4)
        assert (first == restarted).all()


class TestBatchedStreams:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1])
    def test_state_words_match_seed_sequence(self, seed):
        words = _pcg64_state_words(np.array([seed], dtype=np.uint32))
        expected = np.random.SeedSequence(seed).generate_state(4, np.uint64)
        assert words.dtype == np.uint64
        assert words[0].tolist() == expected.tolist()

    @settings(max_examples=40, deadline=None)
    @given(
        root=st.sampled_from([0, 2019, 2**32 - 1]),
        names=st.lists(
            st.text(min_size=1, max_size=24), min_size=1, max_size=12, unique=True
        ),
    )
    def test_batch_equals_default_rng(self, root, names):
        generators = RngStreams(root).streams(names)
        assert len(generators) == len(names)
        for name, generator in zip(names, generators):
            expected = np.random.default_rng(_derive_seed(root, name))
            assert generator.bit_generator.state == expected.bit_generator.state
            assert generator.normal(size=3).tolist() == expected.normal(
                size=3
            ).tolist()

    def test_state_words_serve_only_pcg64_seeding(self):
        words = _state_words_type()(_pcg64_state_words(np.array([7], np.uint32))[0])
        assert isinstance(words, np.random.bit_generator.ISeedSequence)
        # PCG64's request, by the type and by any spelling of its dtype.
        for dtype in (np.uint64, "uint64", np.dtype("<u8")):
            assert words.generate_state(4, dtype).tolist() == (
                np.random.SeedSequence(7).generate_state(4, np.uint64).tolist()
            )
        for n_words, dtype in ((4, np.uint32), (2, np.uint64), (8, np.uint64)):
            with pytest.raises(ConfigurationError, match="only PCG64 seeding"):
                words.generate_state(n_words, dtype)
        # A bit generator that asks for other words fails the same way.
        with pytest.raises(ConfigurationError, match="only PCG64 seeding"):
            np.random.Philox(words)

    def test_batch_matches_one_at_a_time(self):
        names = [f"characterize.idle.P0C{core}.{trial}" for core in range(8)
                 for trial in range(4)]
        batched = RngStreams(7).streams(names)
        single = RngStreams(7)
        for name, generator in zip(names, batched):
            assert (
                generator.bit_generator.state
                == single.stream(name).bit_generator.state
            )

    def test_existing_streams_keep_identity_and_position(self):
        streams = RngStreams(5)
        existing = streams.stream("a")
        existing.random(3)
        position = existing.bit_generator.state
        got = streams.streams(["b", "a", "c"])
        assert got[1] is existing
        assert existing.bit_generator.state == position
        assert streams.stream("b") is got[0]
        assert streams.stream("c") is got[2]

    def test_batched_generator_pickles(self):
        generator = RngStreams(3).streams(["a"])[0]
        generator.normal(size=3)
        restored = pickle.loads(pickle.dumps(generator))
        assert restored.bit_generator.state == generator.bit_generator.state
        assert restored.normal() == generator.normal()

    def test_repeated_names_share_one_generator(self):
        first, second = RngStreams(5).streams(["x", "x"])
        assert first is second

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            RngStreams(0).streams(["ok", ""])


class TestSpawn:
    def test_spawn_reproducible(self):
        a = RngStreams(3).spawn(1).stream("x").random(3)
        b = RngStreams(3).spawn(1).stream("x").random(3)
        assert (a == b).all()

    def test_spawn_salts_differ(self):
        parent = RngStreams(3)
        a = parent.spawn(1).stream("x").random(3)
        b = parent.spawn(2).stream("x").random(3)
        assert not (a == b).all()

    def test_negative_salt_rejected(self):
        with pytest.raises(ConfigurationError):
            RngStreams(3).spawn(-1)


class TestValidation:
    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            RngStreams(-1)

    def test_non_int_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            RngStreams(1.5)  # type: ignore[arg-type]

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            RngStreams(0).stream("")

    def test_seed_property(self):
        assert RngStreams(42).seed == 42
