"""Golden test: the solve store a cold fleet run fills, byte for byte.

A cold 16-chip ``characterize_fleet`` at seed 2019 writes every chip's
characterization record and converged states into a fresh store.  The
digests pin the bytes of both store files, so a change to a record's
bytes, a key, or the order the fleet writes records in shows up here.
If a deliberate change moves them, update the digests in the same commit
and say why.
"""

import hashlib

import pytest

from repro.core.fleet import characterize_fleet
from repro.fastpath.cache import reset_solve_cache
from repro.fastpath.store import configure_store, reset_store

SEED = 2019
CHIPS = 16
FILES_SHA256 = {
    "store.dat": "3dfb46d1643ef8054782ce277bc3302eaf85ab8280589907971778f0d2755c02",
    "store.idx": "4157bca95c31760c169334e684f7aeed66fbe301e7f27b1e728e24cbfd6f44b1",
}


@pytest.fixture(autouse=True)
def _clean_layers():
    reset_store()
    reset_solve_cache()
    yield
    reset_store()
    reset_solve_cache()


def test_cold_fleet_store_files_are_pinned(tmp_path):
    root = tmp_path / "store"
    configure_store(root)
    characterize_fleet(CHIPS, seed=SEED)
    reset_store()
    digests = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.iterdir())
    }
    assert digests == FILES_SHA256
