"""In-memory memoization of converged chip steady states.

Keys are ``(chip fingerprint, assignment tuple)``: the fingerprint is
content-addressed (see :mod:`repro.fastpath.compiled`), so equal chips —
e.g. the testbed rebuilt from the same seed by consecutive experiments —
share entries, while any change to a physical parameter starts from a cold
cache.  Assignment tuples are frozen dataclasses and hash by value.

The cache is process-local and bounded (LRU), which is what keeps a
serial fleet run's memo at :data:`DEFAULT_MAX_ENTRIES` states however many
chips stream through it.  Experiment harnesses reset it at the start of
every experiment run so which rows hit — and therefore ``chip.solves`` —
is a property of the experiment, whether experiments run serially in one
process or fanned out across a pool.  The ``fastpath.cache.*`` counters it
feeds into :mod:`repro.obs.metrics` also depend on LRU history and worker
partitioning, so they are execution-scoped and kept out of manifests.
"""

from __future__ import annotations

from collections import OrderedDict

from ..errors import ConfigurationError

#: Default entry bound; a full `experiment all` sweep stays well under it.
DEFAULT_MAX_ENTRIES = 4096


class SolveCache:
    """Bounded LRU cache of converged :class:`ChipSteadyState` objects."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self._max_entries = max_entries
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key):
        """Cached state for ``key``, or ``None``; counts the hit or miss."""
        state = self._entries.get(key)
        if state is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return state

    def put(self, key, state) -> None:
        """Store a converged state, evicting the least recently used entry."""
        self._entries[key] = state
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, int]:
        """Counter snapshot in the mergeable-partial shape.

        The keys match the ``fastpath.cache.*`` obs counters, so pool
        workers can ship their process-local cache activity home and the
        parent can fold it into the shared registry with plain
        ``counter(name).inc(value)`` adds — the same order-invariant
        merge the rest of the streaming layer uses.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
        }

    def clear(self) -> None:
        """Drop every entry and zero the hit/miss/eviction counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


_GLOBAL_CACHE = SolveCache()


def get_solve_cache() -> SolveCache:
    """The process-wide solver cache used by :class:`ChipSim` by default."""
    return _GLOBAL_CACHE


def reset_solve_cache() -> None:
    """Clear the process-wide cache (harnesses call this per experiment)."""
    _GLOBAL_CACHE.clear()
