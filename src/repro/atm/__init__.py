"""ATM system simulator: cores, chips, servers, failures, transients.

Ties the substrates together:

* :mod:`repro.atm.core_sim` — one core's ATM equilibrium frequency and
  safety evaluation under a workload;
* :mod:`repro.atm.chip_sim` — the eight-core chip with its shared supply:
  the fixed-point solver that couples every core's frequency to total chip
  power through the IR drop;
* :mod:`repro.atm.system` — the two-socket server;
* :mod:`repro.atm.failure` — the timing-violation failure taxonomy
  (crash / abnormal exit / silent data corruption) and its sampler;
* :mod:`repro.atm.transient` — nanosecond-scale simulation of di/dt droops
  versus the DPLL loop's response: one interval kernel for a single core
  and (:mod:`repro.atm.multicore_transient`) for a chip's cores on their
  shared rail.
"""

from .failure import FailureMode, FailureModel
from .core_sim import equilibrium_frequency_mhz, SafetyProbe
from .chip_sim import ChipSim, CoreAssignment, ChipSteadyState, MarginMode
from .system import ServerSim
from .transient import TransientSimulator, TransientResult
from .multicore_transient import (
    MulticoreTransientResult,
    MulticoreTransientSimulator,
)

__all__ = [
    "FailureMode",
    "FailureModel",
    "equilibrium_frequency_mhz",
    "SafetyProbe",
    "ChipSim",
    "CoreAssignment",
    "ChipSteadyState",
    "MarginMode",
    "ServerSim",
    "TransientSimulator",
    "TransientResult",
    "MulticoreTransientSimulator",
    "MulticoreTransientResult",
]
