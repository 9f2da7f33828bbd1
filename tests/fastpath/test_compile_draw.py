"""``compile_draw`` against compiling the materialized chip.

The fleet compiles every chip straight from its draw, and the store
holds no compiled tables.  With no store, a writable store or a
read-only store configured, ``compile_draw(draw)`` and
``compile_chip(draw.materialize())`` must equal
``CompiledChip(draw.materialize())`` in every array (bytes and dtype),
every scalar and the fingerprint, and neither may call the store.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, reject, settings, strategies as st

from repro.errors import ConfigurationError
from repro.fastpath.compiled import CompiledChip, compile_chip, compile_draw
from repro.fastpath.store import SolveStore, configure_store, reset_store
from repro.silicon.chipspec import draw_chips

ARRAYS = (
    "base_delay_ps",
    "insert_table_ps",
    "v_threshold",
    "alpha",
    "nominal_alpha_factor",
    "temp_coeff",
    "leakage_w",
    "ceff_w_per_ghz",
    "leakage_temp_coeff",
    "preset_code",
)
SCALARS = (
    "n_cores",
    "slack_ps",
    "vrm_voltage",
    "pdn_resistance_ohm",
    "uncore_power_w",
    "ambient_c",
    "thermal_resistance",
    "fingerprint",
)

DRAWS = dict(
    seed=st.integers(min_value=0, max_value=2**31),
    start=st.integers(min_value=0, max_value=20_000),
    n_cores=st.sampled_from((1, 4, 8)),
)


def _draw(seed: int, start: int, n_cores: int):
    try:
        return draw_chips(seed, range(start, start + 1), n_cores=n_cores)[0]
    except ConfigurationError:  # a non-physical chip
        reject()


def _assert_compiled_equal(got: CompiledChip, want: CompiledChip) -> None:
    for name in ARRAYS:
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype, name
        assert mine.shape == theirs.shape, name
        assert mine.tobytes() == theirs.tobytes(), name
    for name in SCALARS:
        mine, theirs = getattr(got, name), getattr(want, name)
        assert type(mine) is type(theirs), name
        assert mine == theirs, name
    assert got.chip.chip_id == want.chip.chip_id


@settings(max_examples=40, deadline=None)
@given(**DRAWS)
def test_without_a_store(seed, start, n_cores):
    draw = _draw(seed, start, n_cores)
    reset_store()
    _assert_compiled_equal(compile_draw(draw), CompiledChip(draw.materialize()))


@pytest.mark.parametrize("writable", [True, False], ids=["writable", "read-only"])
@settings(max_examples=25, deadline=None)
@given(**DRAWS)
def test_with_a_store(writable, seed, start, n_cores):
    draw = _draw(seed, start, n_cores)
    want = CompiledChip(draw.materialize())
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "store"
        SolveStore(path).close()  # an empty store on disk
        files = {name: (path / name).read_bytes() for name in ("store.idx", "store.dat")}
        store = configure_store(path, writable=writable)
        before = store.stats()
        try:
            got = [compile_draw(draw), compile_chip(draw.materialize())]
            assert store.stats() == before
        finally:
            reset_store()
        assert {name: (path / name).read_bytes() for name in files} == files
    for compiled in got:
        _assert_compiled_equal(compiled, want)
