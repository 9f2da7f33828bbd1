"""Array-native fast path for the chip steady-state solver.

Every reproduced figure funnels through the chip steady-state solve.
This package compiles a chip's silicon description into flat numpy
arrays once (:class:`CompiledChip`), converges assignment rows with the
one fixed-point kernel of :mod:`repro.fastpath.solver`, and memoizes
converged states by content-addressed chip fingerprint plus assignment
tuple (:class:`SolveCache`).  The kernel has two entries:
:func:`solve_many_compiled` broadcasts one chip's arrays across its rows,
and :func:`solve_population_compiled` gathers each row's parameters from
a stacked :class:`CompiledPopulation`.

Below the in-memory cache sits an optional disk layer
(:class:`~repro.fastpath.store.SolveStore`): converged states and
characterization transcripts persist under content addresses, so a warm
second run — or a read-only pool worker sharing the mmap — skips
characterization and solve entirely and only compiles each chip from its
draw.  Configure it with :func:`configure_store` (the fleet CLI's
``--solve-store``); it is off by default and changes no result bytes
when on.

The scalar :meth:`repro.atm.chip_sim.ChipSim.solve_steady_state_reference`
is the test oracle: the kernel reproduces it within ~1e-12 MHz
(property-tested bound 1e-9 MHz in ``tests/fastpath``); no production
path calls it.
"""

from .cache import SolveCache, get_solve_cache, reset_solve_cache
from .compiled import CompiledChip, compile_chip, compile_draw, fingerprint_of
from .population import (
    CompiledPopulation,
    solve_chips_cached,
    solve_population,
    solve_population_compiled,
)
from .solver import solve_many_compiled
from .store import SolveStore, configure_store, get_store, reset_store

__all__ = [
    "CompiledChip",
    "CompiledPopulation",
    "SolveCache",
    "SolveStore",
    "compile_chip",
    "compile_draw",
    "configure_store",
    "fingerprint_of",
    "get_solve_cache",
    "get_store",
    "reset_solve_cache",
    "reset_store",
    "solve_chips_cached",
    "solve_many_compiled",
    "solve_population",
    "solve_population_compiled",
]
