"""Golden tests: the population solve's experiment artifacts are pinned.

``fig07`` converges both testbed chips in one :func:`solve_population`
batch and ``ext_generality`` one platform's rows per ``solve_many`` batch.
Their rendered output and event-stream digests are pinned at values the
chip-at-a-time loop produced, so any change to the batched solve that
moves a single byte fails here.  ``table1`` is characterization-only (no
steady-state solves), so it pins its determinism through
:meth:`Characterizer.characterize_chips` instead.
"""

import hashlib
import json

import pytest

from repro.experiments import ext_generality, fig07_idle_limits, table1_limits
from repro.fastpath.cache import reset_solve_cache
from repro.obs.manifest import build_manifest, save_manifest
from repro.obs.runtime import Observability, observed
from repro.obs.sinks import JsonlFileSink

SEED = 2019


def _run_observed(run_fn, experiment_id, out_dir, **kwargs):
    """Inline mirror of :func:`repro.experiments.common.run_observed` that
    forwards extra kwargs (``trials``) to ``run()``."""
    reset_solve_cache()
    out_dir.mkdir(parents=True, exist_ok=True)
    events_path = out_dir / f"{experiment_id}.events.jsonl"
    manifest_path = out_dir / f"{experiment_id}.manifest.json"
    sink = JsonlFileSink(events_path)
    obs = Observability(sink)
    try:
        with observed(obs):
            result = run_fn(seed=SEED, **kwargs)
        metrics_summary = obs.metrics.to_summary()
    finally:
        obs.close()
    manifest = build_manifest(
        experiment_id,
        SEED,
        result_metrics=result.metrics,
        metrics_summary=metrics_summary,
        events_path=events_path,
        event_count=sink.count,
    )
    save_manifest(manifest, manifest_path)
    return result, events_path, manifest_path


#: (render sha256, events_sha256) per experiment at seed 2019.
PINNED = {
    "fig07": (
        "cd34429adc5b2985596219485ae2cd033d664e07d3ebd15ac61ce20c399396f2",
        "cc06cd077a3ac73874d88ec702e3adc7a5abe629413cfa1df7ae163563a4a763",
    ),
    "ext_generality": (
        "fe9d144d2e0210485ae1922378d61df5350ee411675ef068a55f1390b0c58113",
        "16bea5f4117a30c256d218793c812cc214c8c00b6a19f0c476fbcc0281cb6352",
    ),
}


@pytest.mark.parametrize(
    ("module", "experiment_id", "kwargs"),
    [
        (fig07_idle_limits, "fig07", {"trials": 3}),
        (ext_generality, "ext_generality", {}),
    ],
)
def test_population_path_is_byte_identical(tmp_path, module, experiment_id, kwargs):
    result, events, manifest = _run_observed(
        module.run, experiment_id, tmp_path, **kwargs
    )
    render_sha = hashlib.sha256(result.render().encode("utf-8")).hexdigest()
    events_sha = json.loads(manifest.read_text())["events_sha256"]
    assert (render_sha, events_sha) == PINNED[experiment_id]
    assert events_sha == hashlib.sha256(events.read_bytes()).hexdigest()


def test_table1_characterize_chips_path_is_deterministic(tmp_path):
    first, first_events, first_manifest = _run_observed(
        table1_limits.run, "table1", tmp_path / "a", trials=3
    )
    second, second_events, second_manifest = _run_observed(
        table1_limits.run, "table1", tmp_path / "b", trials=3
    )
    assert first.render() == second.render()
    assert first_events.read_bytes() == second_events.read_bytes()
    assert first_manifest.read_bytes() == second_manifest.read_bytes()
