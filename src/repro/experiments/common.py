"""Shared scaffolding for the experiment modules.

Every reproduced table/figure lives in its own module exposing a
``run(seed=...) -> ExperimentResult``.  The result object carries the same
rows/series the paper reports plus a flat ``metrics`` dict that
EXPERIMENTS.md and the integration tests compare against the paper's
numbers.  ``render()`` produces the plain-text artifact the benchmark
harness prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigurationError
from ..obs.manifest import RunManifest, build_manifest, save_manifest
from ..obs.runtime import Observability, observed
from ..obs.sinks import JsonlFileSink


@dataclass(frozen=True)
class ExperimentResult:
    """Structured outcome of one reproduced experiment."""

    experiment_id: str
    title: str
    body: str
    metrics: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.experiment_id:
            raise ConfigurationError("experiment_id must be non-empty")
        if not self.title:
            raise ConfigurationError("title must be non-empty")

    def render(self) -> str:
        """Full plain-text report for this experiment."""
        lines = [f"== {self.experiment_id}: {self.title} ==", "", self.body]
        if self.metrics:
            lines.append("")
            lines.append("key metrics:")
            for name in sorted(self.metrics):
                lines.append(f"  {name} = {self.metrics[name]:.4g}")
        return "\n".join(lines)

    def metric(self, name: str) -> float:
        """One metric by name; raises for unknown names."""
        try:
            return self.metrics[name]
        except KeyError:
            known = ", ".join(sorted(self.metrics))
            raise ConfigurationError(
                f"unknown metric {name!r}; available: {known}"
            ) from None


@dataclass(frozen=True)
class ObservedRun:
    """One experiment run executed under full observability.

    Bundles the experiment's own result with the artifacts the run left
    behind: the JSONL event stream, the run manifest, and the live
    :class:`~repro.obs.runtime.Observability` context's metric summary
    (already folded into the manifest).
    """

    result: ExperimentResult
    manifest: RunManifest
    events_path: Path
    manifest_path: Path
    event_count: int


def run_observed(
    experiment_id: str,
    *,
    seed: int = 2019,
    out_dir: str | Path = "runs",
) -> ObservedRun:
    """Run one experiment with event capture and write its manifest.

    Installs an :class:`Observability` context backed by a JSONL file sink
    for the duration of the run, then assembles and saves the
    :class:`RunManifest`.  Everything written is canonical — two runs with
    the same seed produce byte-identical event streams and manifests.
    """
    # Local import: common is imported by every experiment module, so the
    # registry (which imports them all) must not be a module-level
    # dependency here.
    from . import run_experiment
    from ..fastpath.cache import reset_solve_cache

    # A cold solve cache at the start of every observed run makes which
    # rows hit the memo — and so chip.solves in the manifest — a property
    # of the experiment alone, not of whatever ran earlier in this
    # process, so manifests match byte-for-byte between serial and pooled
    # execution.
    reset_solve_cache()
    target_dir = Path(out_dir)
    target_dir.mkdir(parents=True, exist_ok=True)
    events_path = target_dir / f"{experiment_id}.events.jsonl"
    manifest_path = target_dir / f"{experiment_id}.manifest.json"

    sink = JsonlFileSink(events_path)
    obs = Observability(sink)
    try:
        with observed(obs):
            result = run_experiment(experiment_id, seed=seed)
        metrics_summary = obs.metrics.to_summary()
    finally:
        obs.close()

    manifest = build_manifest(
        experiment_id,
        seed,
        result_metrics=result.metrics,
        metrics_summary=metrics_summary,
        events_path=events_path,
        event_count=sink.count,
    )
    save_manifest(manifest, manifest_path)
    return ObservedRun(
        result=result,
        manifest=manifest,
        events_path=events_path,
        manifest_path=manifest_path,
        event_count=sink.count,
    )
