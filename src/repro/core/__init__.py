"""The paper's contribution: fine-tuning, prediction, and management.

This subpackage is the part of the reproduction that would run unchanged
against real ATM hardware behind the same probe/solve interfaces:

* :mod:`repro.core.characterize` — the Fig. 6 methodology producing the
  Table I limit rows and the per-<app, core> rollback data;
* :mod:`repro.core.limits` — the limit-table container;
* :mod:`repro.core.stress_test` — the test-time deployment procedure;
* :mod:`repro.core.freq_predictor` / :mod:`repro.core.perf_predictor` —
  the Eq. 1 and Fig. 12b linear models;
* :mod:`repro.core.governor`, :mod:`repro.core.scheduler`,
  :mod:`repro.core.throttle`, :mod:`repro.core.manager` — the Fig. 13
  management scheme and its Fig. 14 evaluation scenarios.
"""

from .characterize import (
    AppCharacterization,
    Characterizer,
    ChipCharacterization,
    IdleCharacterization,
    UbenchCharacterization,
)
from .cpm_predictor import CpmPrediction, GuardedCpmPredictor, workload_features
from .energy import EnergyReport, energy_report
from .freq_predictor import (
    CoreFrequencyPredictor,
    fit_core_frequency_models,
    frequency_power_sweep,
)
from .governor import Governor, GovernorDecision, GovernorPolicy
from .limits import CoreLimits, LimitTable
from .manager import AtmManager, ScenarioResult
from .perf_predictor import (
    AppPerformancePredictor,
    fit_performance_predictor,
    fit_population,
)
from .persistence import load_limit_table, save_deployment, save_limit_table
from .scheduler import (
    CriticalPlacement,
    Placement,
    VariationAwareScheduler,
    rank_cores_by_speed,
)
from .server_manager import (
    ServerAtmManager,
    ServerScenarioResult,
    SocketStrategy,
)
from .stress_test import CoreDeployment, DeploymentConfig, StressTestProcedure
from .throttle import (
    BackgroundThrottler,
    PSTATE_LADDER_MHZ,
    THROTTLE_LADDER,
    ThrottleDecision,
    ThrottleSetting,
    build_assignments,
)

__all__ = [
    "AppCharacterization",
    "Characterizer",
    "CpmPrediction",
    "GuardedCpmPredictor",
    "workload_features",
    "EnergyReport",
    "energy_report",
    "load_limit_table",
    "save_deployment",
    "save_limit_table",
    "CriticalPlacement",
    "ServerAtmManager",
    "ServerScenarioResult",
    "SocketStrategy",
    "ChipCharacterization",
    "IdleCharacterization",
    "UbenchCharacterization",
    "CoreFrequencyPredictor",
    "fit_core_frequency_models",
    "frequency_power_sweep",
    "Governor",
    "GovernorDecision",
    "GovernorPolicy",
    "CoreLimits",
    "LimitTable",
    "AtmManager",
    "ScenarioResult",
    "AppPerformancePredictor",
    "fit_performance_predictor",
    "fit_population",
    "Placement",
    "VariationAwareScheduler",
    "rank_cores_by_speed",
    "CoreDeployment",
    "DeploymentConfig",
    "StressTestProcedure",
    "BackgroundThrottler",
    "PSTATE_LADDER_MHZ",
    "THROTTLE_LADDER",
    "ThrottleDecision",
    "ThrottleSetting",
    "build_assignments",
]
