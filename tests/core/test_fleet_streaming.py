"""Golden test: fleet characterization is chunking- and pool-invariant.

The streaming layer's headline contract: the fleet report, the metric
summary, *and* the raw merged registry state are byte-identical across
every ``chunk_size`` × ``jobs`` combination —
partial registries from chunks and pool workers fold into the same
rollup a serial run produces.  The matrix below is the acceptance matrix
from the issue (chunk 16/64/256, jobs 1/4) plus a deliberately awkward
odd chunking on two workers.  One more case shrinks the solve memo so a
serial run evicts while pooled workers (which reset it per chunk) do not:
LRU traffic is execution-scoped, so the summaries must still agree.
"""

import json

import pytest

from repro.core.fleet import characterize_fleet
from repro.fastpath.cache import SolveCache, get_solve_cache, reset_solve_cache
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import Observability, observed
from repro.obs.sinks import NullSink

SEED = 2019
N_CHIPS = 40


def _run(chunk_size, jobs, n_chips=N_CHIPS, **kwargs):
    reset_solve_cache()
    obs = Observability(NullSink(), metrics=MetricsRegistry())
    with observed(obs):
        report = characterize_fleet(
            n_chips, seed=SEED, chunk_size=chunk_size, jobs=jobs, **kwargs
        )
    return (
        json.dumps(report.to_dict(), sort_keys=True),
        json.dumps(obs.metrics.to_summary(), sort_keys=True),
        json.dumps(obs.metrics.to_state(), sort_keys=True),
    )


class TestChunkAndPoolInvariance:
    @pytest.fixture(scope="class")
    def reference(self):
        return _run(16, 1)

    @pytest.mark.parametrize(
        ("chunk_size", "jobs"),
        [(16, 4), (64, 1), (64, 4), (256, 1), (256, 4), (7, 2)],
    )
    def test_rollup_bytes_are_invariant(self, reference, chunk_size, jobs):
        fresh = _run(chunk_size, jobs)
        for name, expected, actual in zip(
            ("report", "summary", "state"), reference, fresh
        ):
            assert actual == expected, (
                f"{name} diverged at chunk_size={chunk_size} jobs={jobs}"
            )

    def test_summary_is_invariant_above_the_memo_bound(self, monkeypatch):
        monkeypatch.setattr(
            "repro.fastpath.cache._GLOBAL_CACHE", SolveCache(max_entries=8)
        )
        small = dict(n_chips=12, trials=2, n_cores=4)
        serial = _run(64, 1, **small)
        assert get_solve_cache().evictions > 0
        pooled = _run(4, 2, **small)
        assert pooled[0] == serial[0], "report diverged"
        assert pooled[1] == serial[1], "summary diverged"


class TestPoolGuards:
    def test_pooled_default_registry_matches_serial(self):
        """Every gauge merges, so a pooled run under the default registry
        reaches the serial run's summary (gauges included)."""
        serial = _run(4, 1, n_chips=8)
        pooled = _run(4, 2, n_chips=8)
        assert pooled[0] == serial[0], "report diverged"
        assert pooled[1] == serial[1], "summary diverged"
        assert '"fleet.tuned_slowest_mhz"' in pooled[1]

    def test_pooled_run_without_obs_matches_serial(self):
        reset_solve_cache()
        serial = characterize_fleet(12, seed=SEED, chunk_size=4, jobs=1)
        reset_solve_cache()
        pooled = characterize_fleet(12, seed=SEED, chunk_size=4, jobs=2)
        assert json.dumps(pooled.to_dict(), sort_keys=True) == json.dumps(
            serial.to_dict(), sort_keys=True
        )
