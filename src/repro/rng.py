"""Deterministic random-number streams.

Every stochastic component in the library (process variation draws, di/dt
event arrivals, failure-outcome sampling) pulls randomness from a named
stream derived from a single experiment seed.  Naming the streams makes
results reproducible *and* stable under refactoring: adding a new consumer
does not perturb the draws seen by existing ones, because each stream is
seeded independently from ``(root_seed, name)``.

Usage::

    streams = RngStreams(seed=7)
    process_rng = streams.stream("silicon.process")
    didt_rng = streams.stream("power.didt")
"""

from __future__ import annotations

import functools
import zlib
from collections.abc import Iterator, Sequence

import numpy as np

from .errors import ConfigurationError


def _derive_seed(root_seed: int, name: str) -> int:
    """Mix ``root_seed`` with a stable hash of ``name``.

    ``zlib.crc32`` is used instead of ``hash()`` because the latter is
    salted per-process and would break reproducibility across runs.
    """
    return (root_seed * 0x9E3779B1 + zlib.crc32(name.encode("utf-8"))) % (2**32)


# numpy's SeedSequence (O'Neill's seed_seq: 32-bit words, a 4-word pool)
# as array arithmetic; _pcg64_state_words replays it for many seeds.
_MASK32 = 0xFFFFFFFF
_XSHIFT = 16
_POOL_SIZE = 4
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)


def _hash_walk(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier constants of ``count`` SeedSequence hashes.

    Each hash xors the value with the running constant, advances the
    constant by ``mult`` and multiplies the value by the new constant;
    the two columns come back shaped ``(count, 1)`` to broadcast over
    seeds.
    """
    xors, mults = [], []
    const = init
    for _ in range(count):
        xors.append(const)
        const = (const * mult) & _MASK32
        mults.append(const)
    return (
        np.array(xors, dtype=np.uint32)[:, None],
        np.array(mults, dtype=np.uint32)[:, None],
    )


def _hash(value: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    value = value ^ xor
    value *= mult
    value ^= value >> _XSHIFT
    return value


#: Hashes in SeedSequence order: pool fill, then for each source word the
#: mix into every other word, then the 8 words of generate_state(4, u64).
_MIX_XOR, _MIX_MULT = _hash_walk(0x43B0D7E5, 0x931E8875, _POOL_SIZE * _POOL_SIZE)
_STATE_XOR, _STATE_MULT = _hash_walk(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)
#: ``(source word, destination words)`` of each mixing round.
_MIX_ROUNDS = tuple(
    (src, [dst for dst in range(_POOL_SIZE) if dst != src])
    for src in range(_POOL_SIZE)
)


def _pcg64_state_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed.

    ``seeds`` is a uint32 array; each ``_derive_seed`` value is one
    entropy word, so row ``i`` of the result is the state the PCG64 of
    ``np.random.default_rng(seeds[i])`` seeds itself from.  The uint32
    arithmetic wraps exactly like SeedSequence's.  The three mixes of one
    source word read the same value, so each round is one array op per
    step over all seeds and destinations.
    """
    pool = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    pool[0] = seeds
    pool = _hash(pool, _MIX_XOR[:_POOL_SIZE], _MIX_MULT[:_POOL_SIZE])
    step = _POOL_SIZE
    for src, dsts in _MIX_ROUNDS:
        hashed = _hash(
            pool[src],
            _MIX_XOR[step : step + len(dsts)],
            _MIX_MULT[step : step + len(dsts)],
        )
        step += len(dsts)
        mixed = pool[dsts] * _MIX_MULT_L
        mixed -= hashed * _MIX_MULT_R
        mixed ^= mixed >> _XSHIFT
        pool[dsts] = mixed
    words = _hash(np.concatenate([pool, pool]), _STATE_XOR, _STATE_MULT)
    # Pairs of uint32 words viewed as uint64, as generate_state views them.
    return np.ascontiguousarray(words.T).view(np.uint64)


@functools.cache
def _state_words_type() -> type:
    """A seed sequence whose PCG64 state words were derived ahead of time.

    ``PCG64`` seeds itself by asking its seed sequence for four uint64
    words; handing over the words ``SeedSequence`` would produce builds
    the same generator without rerunning the hash for each stream.  The
    class subclasses numpy's ``ISeedSequence``, so the generator's type
    check passes without a registry lookup, and it is defined on first
    use: ``numpy.random`` loads lazily, and importing its
    ``bit_generator`` module here would load it into every process that
    imports this package.  An instance pickles as a call to
    :func:`_state_words`, so a generator seeded from one unpickles in a
    process that has not defined the class yet.
    """
    from numpy.random.bit_generator import ISeedSequence

    class _StateWords(ISeedSequence):
        __slots__ = ("_words",)

        def __init__(self, words: np.ndarray):
            self._words = words

        def __reduce__(self):
            return _state_words, (self._words,)

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 passes the np.uint64 type itself: the identity check
            # skips building a dtype for the general comparison.
            if n_words == len(self._words) and (
                dtype is np.uint64 or np.dtype(dtype) == np.uint64
            ):
                return self._words
            raise ConfigurationError(
                "precomputed seed words serve only PCG64 seeding"
            )

    return _StateWords


def _state_words(words: np.ndarray):
    """The :func:`_state_words_type` seed sequence of ``words``."""
    return _state_words_type()(words)


def _check_seed(seed) -> None:
    if not isinstance(seed, int) or seed < 0:
        raise ConfigurationError(f"seed must be a non-negative int, got {seed!r}")


def seeded_streams(
    pairs: Sequence[tuple[int, str]],
) -> Iterator[np.random.Generator]:
    """A fresh ``RngStreams(seed).stream(name)`` for each ``(seed, name)`` pair.

    The seeds' PCG64 state words come from one vectorized pass, so each
    generator is bit-identical to the one :meth:`RngStreams.stream` would
    build, without paying ``default_rng``'s per-stream seeding.  The pairs
    are validated up front; each generator is built as the iterator
    reaches it, so a caller that uses them one at a time holds one.
    """
    for seed, name in pairs:
        _check_seed(seed)
        if not name:
            raise ConfigurationError("stream name must be non-empty")
    seeds = np.array([_derive_seed(seed, name) for seed, name in pairs], dtype=np.uint32)
    state_words = _state_words_type()
    return (
        np.random.Generator(np.random.PCG64(state_words(words)))
        for words in _pcg64_state_words(seeds)
    )


class RngStreams:
    """A factory of independent, named :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed for the whole experiment.  Two :class:`RngStreams` built
        with the same seed produce identical streams for identical names.
    """

    def __init__(self, seed: int = 0):
        _check_seed(seed)
        self._seed = seed
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this factory was built with."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object, so consumers sharing a name also share a draw sequence.
        """
        if not name:
            raise ConfigurationError("stream name must be non-empty")
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(_derive_seed(self._seed, name))
        return self._streams[name]

    def streams(self, names: Sequence[str]) -> list[np.random.Generator]:
        """Batched :meth:`stream`: the generator of each name, in order.

        A name that already has a stream keeps its generator and its
        position.  The others are created together by
        :func:`seeded_streams`.
        """
        if not all(names):
            raise ConfigurationError("stream name must be non-empty")
        missing = [name for name in dict.fromkeys(names) if name not in self._streams]
        if missing:
            generators = seeded_streams([(self._seed, name) for name in missing])
            self._streams.update(zip(missing, generators))
        return [self._streams[name] for name in names]

    def fresh(self, name: str) -> np.random.Generator:
        """Return a brand-new generator for ``name``, restarting its sequence.

        Useful in tests that want draw-for-draw reproducibility within a
        single process without constructing a new :class:`RngStreams`.
        """
        self._streams[name] = np.random.default_rng(_derive_seed(self._seed, name))
        return self._streams[name]

    def spawn(self, salt: int) -> "RngStreams":
        """Return an independent factory derived from this one.

        Used when an experiment runs many trials: each trial spawns its own
        factory so trials are independent yet reproducible.
        """
        if salt < 0:
            raise ConfigurationError(f"salt must be non-negative, got {salt}")
        return RngStreams(_derive_seed(self._seed, f"spawn:{salt}"))
