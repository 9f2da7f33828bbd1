"""repro — reproduction of the HPCA 2019 ATM fine-tuning paper.

This library rebuilds, in Python, the system described in *"Fine-Tuning
the Active Timing Margin (ATM) Control Loop for Maximizing Multi-Core
Efficiency on an IBM POWER Server"*: a simulated POWER7+ substrate (CPM
sensors, per-core DPLL loops, shared power delivery, workload models) plus
the paper's actual contribution — the per-core fine-tuning methodology,
the frequency/performance predictors, and the variation-aware management
layer.

Quick start::

    from repro import power7plus_testbed, ChipSim, Characterizer, RngStreams

    server = power7plus_testbed()
    sim = ChipSim(server.chips[0])
    table, _ = Characterizer(RngStreams(7)).characterize_server(server)
    print(table.render())

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from .errors import (
    ApplicationError,
    CalibrationError,
    ConfigurationError,
    HardwareFailure,
    ReproError,
    SchedulingError,
    SilentDataCorruption,
    SimulationError,
    SystemCrash,
    TimingViolation,
)
from .rng import RngStreams
from .silicon import (
    ChipSpec,
    CoreSpec,
    ServerSpec,
    power7plus_testbed,
    sample_chip,
)
from .atm import (
    ChipSim,
    CoreAssignment,
    MarginMode,
    SafetyProbe,
    ServerSim,
    TransientSimulator,
)
from .core import (
    AtmManager,
    Characterizer,
    GovernorPolicy,
    LimitTable,
    StressTestProcedure,
)
from .workloads import Workload, get_workload

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ConfigurationError",
    "CalibrationError",
    "SimulationError",
    "HardwareFailure",
    "TimingViolation",
    "SystemCrash",
    "ApplicationError",
    "SilentDataCorruption",
    "SchedulingError",
    "RngStreams",
    "ChipSpec",
    "CoreSpec",
    "ServerSpec",
    "power7plus_testbed",
    "sample_chip",
    "ChipSim",
    "CoreAssignment",
    "MarginMode",
    "SafetyProbe",
    "ServerSim",
    "TransientSimulator",
    "AtmManager",
    "Characterizer",
    "GovernorPolicy",
    "LimitTable",
    "StressTestProcedure",
    "Workload",
    "get_workload",
    "__version__",
]
