"""Tests for the solve cache and the compiled-chip fingerprint."""

import pytest

from repro.atm.chip_sim import ChipSim
from repro.errors import ConfigurationError, SimulationError
from repro.fastpath import population
from repro.fastpath.cache import (
    SolveCache,
    get_solve_cache,
    reset_solve_cache,
)
from repro.fastpath.compiled import CompiledChip
from repro.fastpath.population import solve_population
from repro.obs.runtime import Observability, observed
from repro.obs.sinks import NullSink
from repro.silicon import sample_chip


class TestSolveCache:
    def test_counts_hits_and_misses(self):
        cache = SolveCache()
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_hit_rate_zero_when_unused(self):
        assert SolveCache().hit_rate == 0.0

    def test_lru_eviction(self):
        cache = SolveCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now oldest
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_clear_resets_entries_and_counters(self):
        cache = SolveCache()
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0
        assert cache.misses == 0

    def test_rejects_non_positive_bound(self):
        with pytest.raises(ConfigurationError):
            SolveCache(max_entries=0)

    def test_eviction_counter(self):
        cache = SolveCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.evictions == 0
        cache.put("c", 3)  # evicts "a"
        cache.put("d", 4)  # evicts "b"
        assert cache.evictions == 2

    def test_clear_resets_evictions(self):
        cache = SolveCache(max_entries=1)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.evictions == 1
        cache.clear()
        assert cache.evictions == 0


class TestFingerprint:
    def test_equal_physics_share_a_fingerprint(self):
        # The same seed rebuilds the same silicon in a fresh object — the
        # content address sees through object identity, which is what lets
        # consecutive experiments reuse each other's converged testbed
        # states.
        chip_a = sample_chip(11)
        chip_b = sample_chip(11)
        assert chip_a is not chip_b
        assert CompiledChip(chip_a).fingerprint == CompiledChip(chip_b).fingerprint

    def test_different_physics_differ(self):
        chip_a = sample_chip(11)
        chip_b = sample_chip(12)
        assert CompiledChip(chip_a).fingerprint != CompiledChip(chip_b).fingerprint


class TestProcessCache:
    def test_second_solve_is_a_cache_hit(self):
        reset_solve_cache()
        chip = sample_chip(21)
        sim = ChipSim(chip)
        row = sim.uniform_assignments()
        first = sim.solve_steady_state(row)
        cache = get_solve_cache()
        misses_after_first = cache.misses
        second = sim.solve_steady_state(row)
        assert cache.hits >= 1
        assert cache.misses == misses_after_first
        assert second is first

    def test_equal_chips_share_entries(self):
        reset_solve_cache()
        sim_a = ChipSim(sample_chip(21))
        sim_b = ChipSim(sample_chip(21))
        state_a = sim_a.solve_steady_state(sim_a.uniform_assignments())
        state_b = sim_b.solve_steady_state(sim_b.uniform_assignments())
        assert get_solve_cache().hits >= 1
        assert state_b is state_a

    def test_reset_clears_the_process_cache(self):
        cache = get_solve_cache()
        cache.put("sentinel", object())
        reset_solve_cache()
        assert len(cache) == 0

    def test_row_repeated_in_one_batch_is_solved_per_occurrence(self):
        reset_solve_cache()
        sim = ChipSim(sample_chip(41))
        row = sim.uniform_assignments()
        obs = Observability(NullSink())
        with observed(obs):
            first, second = sim.solve_many([row, row])
        cache = get_solve_cache()
        assert (cache.hits, cache.misses) == (0, 2)
        assert obs.metrics.counter("chip.solves").value == 2
        assert first.freqs_mhz == second.freqs_mhz  # repro-lint: disable=RL005

    def test_failed_batch_publishes_nothing(self, monkeypatch):
        """States enter the memo only after the batch returns, so a solve
        that raises leaves no entry behind and a retry solves afresh."""
        reset_solve_cache()
        sims = [ChipSim(sample_chip(31, chip_id="x0")),
                ChipSim(sample_chip(32, chip_id="x1"))]
        rows = [[sim.uniform_assignments()] for sim in sims]

        def diverge(*_args, **_kwargs):
            raise SimulationError("forced divergence")

        monkeypatch.setattr(population, "solve_population_compiled", diverge)
        with pytest.raises(SimulationError):
            solve_population(sims, rows)
        cache = get_solve_cache()
        assert len(cache) == 0

        monkeypatch.undo()
        states = solve_population(sims, rows)
        assert cache.misses == 4  # both rows missed again and were solved
        assert len(cache) == 2
        again = solve_population(sims, rows)
        assert cache.hits == 2
        assert again[0][0] is states[0][0]
        assert again[1][0] is states[1][0]
