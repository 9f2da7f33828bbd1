"""One module per reproduced paper table/figure, plus ablations.

Each module exposes ``run(seed=...) -> ExperimentResult``.  The registry
maps experiment ids to their run functions so the CLI (``repro
experiment all``), benchmarks, and tests iterate one source of truth.
"""

from collections.abc import Callable

from ..errors import ConfigurationError
from .common import ExperimentResult
from . import (
    ablation_granularity,
    ablation_loop_latency,
    ablation_policy,
    ablation_rollback,
    ablation_sync,
    ext_aging,
    ext_cost,
    ext_energy,
    ext_generality,
    ext_isolation,
    ext_predictor,
    ext_sensitivity,
    fig01_margin_modes,
    fig02_squeezenet,
    fig04b_presets,
    fig05_freq_vs_reduction,
    fig07_idle_limits,
    fig08_ubench_rollback,
    fig09_app_rollback,
    fig10_rollback_matrix,
    fig11_stress_test,
    fig12a_freq_model,
    fig12b_perf_model,
    fig13_pipeline,
    fig14_management,
    table1_limits,
    table2_classes,
)

#: Experiment id → run function, in the paper's presentation order.
REGISTRY: dict[str, Callable[..., ExperimentResult]] = {
    "fig01": fig01_margin_modes.run,
    "fig02": fig02_squeezenet.run,
    "fig04b": fig04b_presets.run,
    "fig05": fig05_freq_vs_reduction.run,
    "fig07": fig07_idle_limits.run,
    "table1": table1_limits.run,
    "fig08": fig08_ubench_rollback.run,
    "fig09": fig09_app_rollback.run,
    "fig10": fig10_rollback_matrix.run,
    "fig11": fig11_stress_test.run,
    "fig12a": fig12a_freq_model.run,
    "fig12b": fig12b_perf_model.run,
    "fig13": fig13_pipeline.run,
    "table2": table2_classes.run,
    "fig14": fig14_management.run,
    "ablation_a1": ablation_loop_latency.run,
    "ablation_a2": ablation_granularity.run,
    "ablation_a3": ablation_rollback.run,
    "ablation_a4": ablation_policy.run,
    "ablation_a5": ablation_sync.run,
    "ext_aging": ext_aging.run,
    "ext_cost": ext_cost.run,
    "ext_energy": ext_energy.run,
    "ext_predictor": ext_predictor.run,
    "ext_isolation": ext_isolation.run,
    "ext_sensitivity": ext_sensitivity.run,
    "ext_generality": ext_generality.run,
}


def run_experiment(experiment_id: str, **kwargs: object) -> ExperimentResult:
    """Run one experiment by id."""
    try:
        runner = REGISTRY[experiment_id]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {known}"
        ) from None
    return runner(**kwargs)  # type: ignore[arg-type]


__all__ = ["REGISTRY", "ExperimentResult", "run_experiment"]
