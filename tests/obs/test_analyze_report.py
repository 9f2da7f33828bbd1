"""Tests for the rendered regression report (obs report)."""

import json

from repro.core.fleet_health import assess_fleet
from repro.experiments.common import run_observed
from repro.obs.analyze.report import (
    build_report,
    render_json,
    render_markdown,
)
from repro.obs.analyze.store import RunStore

SEED = 2019


def _store_with_runs(tmp_path, seeds=(SEED,)):
    store = RunStore(tmp_path / "store")
    for seed in seeds:
        run = run_observed("fig01", seed=seed, out_dir=tmp_path / f"s{seed}")
        store.put(run.manifest_path)
    return store


class TestBuildReport:
    def test_document_shape(self, tmp_path):
        store = _store_with_runs(tmp_path, seeds=(SEED, 7))
        report = build_report(store)
        doc = report.document
        assert doc["kind"] == "obs_report"
        assert doc["schema"] == 1
        assert len(doc["runs"]) == 2
        assert doc["regressions"] == []
        assert set(doc["spans"]) == {run["run_id"] for run in doc["runs"]}

    def test_fleet_health_section_optional(self, tmp_path):
        store = _store_with_runs(tmp_path)
        without = build_report(store)
        assert "fleet_health" not in without.document
        health = assess_fleet(3, seed=SEED, trials=2, n_cores=2).to_dict()
        with_section = build_report(store, fleet_health=health)
        assert with_section.document["fleet_health"] == health

    def test_same_inputs_render_byte_identical(self, tmp_path):
        store = _store_with_runs(tmp_path, seeds=(SEED, 7))
        first = build_report(store)
        second = build_report(store)
        assert render_json(first) == render_json(second)
        assert render_markdown(first) == render_markdown(second)

    def test_no_absolute_paths_in_either_rendering(self, tmp_path):
        store = _store_with_runs(tmp_path)
        report = build_report(store)
        assert str(tmp_path) not in render_json(report)
        assert str(tmp_path) not in render_markdown(report)


class TestRenderings:
    def test_json_is_canonical(self, tmp_path):
        store = _store_with_runs(tmp_path)
        text = render_json(build_report(store))
        document = json.loads(text)
        assert text == json.dumps(document, sort_keys=True, indent=2) + "\n"

    def test_markdown_sections_present(self, tmp_path):
        store = _store_with_runs(tmp_path)
        text = render_markdown(build_report(store))
        assert "# repro.obs report" in text
        assert "## Run registry (1 run(s))" in text
        assert "## Metrics history" in text
        assert "## Regressions" in text
        assert "## Span profile" in text

    def test_empty_store_renders_placeholders(self, tmp_path):
        store = RunStore(tmp_path / "empty")
        text = render_markdown(build_report(store))
        assert "(no runs registered)" in text
        assert "(no metric series)" in text
