"""``compile_draw`` against compiling the materialized chip.

The fleet compiles every chip straight from its draw.  Whatever the
store does — none configured, a writable store that misses, a read-only
store that misses — the result must be ``CompiledChip(draw.materialize())``
in every array (bytes and dtype), every scalar and the fingerprint, and a
writable store must receive the same payload.
"""

import tempfile
from pathlib import Path

from hypothesis import given, reject, settings, strategies as st

from repro.errors import ConfigurationError
from repro.fastpath.compiled import CompiledChip, compile_draw
from repro.fastpath.store import (
    KIND_COMPILED,
    SolveStore,
    compiled_key,
    configure_store,
    encode_compiled,
    get_store,
    reset_store,
)
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


@settings(max_examples=25, deadline=None)
@given(**DRAWS)
def test_writable_store_miss_writes_the_materialized_payload(seed, start, n_cores):
    draw = _draw(seed, start, n_cores)
    want = CompiledChip(draw.materialize())
    with tempfile.TemporaryDirectory() as root:
        configure_store(Path(root) / "store")
        try:
            got = compile_draw(draw)
            stats = get_store().stats()
            payload = get_store().get(KIND_COMPILED, compiled_key(want.fingerprint))
            assert stats["compiled_misses"] == 1 and stats["writes"] == 1
            assert bytes(payload) == encode_compiled(want)
        finally:
            reset_store()
    _assert_compiled_equal(got, want)
    assert encode_compiled(got) == encode_compiled(want)


@settings(max_examples=25, deadline=None)
@given(**DRAWS)
def test_read_only_store_miss(seed, start, n_cores):
    draw = _draw(seed, start, n_cores)
    with tempfile.TemporaryDirectory() as root:
        SolveStore(Path(root) / "store").close()  # an empty store on disk
        store = configure_store(Path(root) / "store", writable=False)
        try:
            got = compile_draw(draw)
            stats = store.stats()
            assert stats["compiled_misses"] == 1 and stats["writes"] == 0
        finally:
            reset_store()
    _assert_compiled_equal(got, CompiledChip(draw.materialize()))
