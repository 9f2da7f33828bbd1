"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core import fleet


@pytest.fixture
def drawn(monkeypatch):
    """Every index range the fleet driver draws, in order."""
    spans = []
    draw_chips = fleet.draw_chips

    def spy(seed, indices, **kwargs):
        spans.append(indices)
        return draw_chips(seed, indices, **kwargs)

    monkeypatch.setattr(fleet, "draw_chips", spy)
    return spans


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_id_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_experiment_all_accepted(self):
        args = build_parser().parse_args(["experiment", "all"])
        assert args.id == "all"


class TestCommands:
    def test_list_workloads(self, capsys):
        assert main(["list-workloads"]) == 0
        out = capsys.readouterr().out
        assert "x264" in out
        assert "squeezenet" in out
        assert "critical" in out

    def test_experiment_renders(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "key metrics" in out

    def test_characterize_random_with_save(self, tmp_path, capsys):
        out_file = tmp_path / "limits.json"
        code = main(
            [
                "--seed", "5",
                "characterize",
                "--random",
                "--trials", "3",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        assert out_file.exists()
        out = capsys.readouterr().out
        assert "thread worst" in out

    def test_deploy_from_saved_limits(self, tmp_path, capsys, testbed_limits):
        from repro.core.persistence import save_limit_table

        limits_file = tmp_path / "limits.json"
        save_limit_table(testbed_limits, limits_file)
        code = main(
            ["deploy", "--limits", str(limits_file), "--rollback", "1",
             "--out", str(tmp_path / "deploy")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speed differential" in out
        assert (tmp_path / "deploy.P0.json").exists()

    @pytest.mark.parametrize(
        "content",
        [None, b"[]", b"\xff\xfe", "directory"],
        ids=["missing", "json-list", "not-utf8", "directory"],
    )
    def test_deploy_missing_limits_fails_cleanly(self, tmp_path, capsys, content):
        limits = tmp_path / "limits.json"
        if content == "directory":
            limits.mkdir()
        elif content is not None:
            limits.write_bytes(content)
        code = main(["deploy", "--limits", str(limits)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_schedule_pair(self, capsys):
        code = main(
            ["schedule", "--critical", "squeezenet", "--background", "x264",
             "--trials", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "managed" in out
        assert "QoS" in out

    def test_schedule_rejects_background_as_critical(self, capsys):
        code = main(
            ["schedule", "--critical", "x264", "--background", "gcc",
             "--trials", "3"]
        )
        assert code == 2
        assert "not a critical application" in capsys.readouterr().err

    def test_unknown_workload_fails_cleanly(self, capsys):
        code = main(
            ["schedule", "--critical", "quake3", "--background", "x264"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_report_with_experiment_filter(self, tmp_path, capsys):
        out_file = tmp_path / "report.md"
        code = main(
            ["report", "--out", str(out_file), "--experiments", "table2,fig04b"]
        )
        assert code == 0
        content = out_file.read_text()
        assert "## table2:" in content
        assert "## fig04b:" in content
        assert "## fig14:" not in content

    def test_report_unknown_experiment_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["report", "--out", str(tmp_path / "r.md"), "--experiments", "bogus"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestObservabilityCommands:
    def test_trace_writes_events_and_manifest(self, tmp_path, capsys):
        code = main(
            ["--seed", "2019", "trace", "fig11",
             "--out", str(tmp_path), "--tail", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "run manifest: fig11" in out
        assert "RollbackEvent" in out
        assert (tmp_path / "fig11.events.jsonl").exists()
        assert (tmp_path / "fig11.manifest.json").exists()

    def test_trace_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "fig99"])

    def test_metrics_renders_instrument_table(self, tmp_path, capsys):
        code = main(["--seed", "2019", "metrics", "fig11", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "probe.total" in out
        assert "counter" in out
        assert (tmp_path / "fig11.manifest.json").exists()

    def test_obs_selfcheck(self, capsys):
        assert main(["obs", "selfcheck"]) == 0
        assert "selfcheck passed" in capsys.readouterr().out

    def test_trace_store_registers_the_run(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        code = main(
            ["trace", "fig01", "--out", str(tmp_path / "run"),
             "--tail", "0", "--store", str(store_dir)]
        )
        assert code == 0
        assert "registered as fig01@s2019-" in capsys.readouterr().out
        assert (store_dir / "index.json").exists()


class TestAnalyzeCli:
    def _trace(self, tmp_path, name, seed="2019", experiment="fig01"):
        out_dir = tmp_path / name
        assert main(
            ["--seed", seed, "trace", experiment,
             "--out", str(out_dir), "--tail", "0"]
        ) == 0
        return out_dir

    def test_diff_same_seed_is_clean(self, tmp_path, capsys):
        left = self._trace(tmp_path, "a")
        right = self._trace(tmp_path, "b")
        capsys.readouterr()
        code = main(["obs", "diff", str(left), str(right)])
        assert code == 0
        out = capsys.readouterr().out
        assert "no drift" in out
        assert "no divergence" in out

    def test_diff_different_seed_pinpoints_divergence(self, tmp_path, capsys):
        left = self._trace(tmp_path, "a", experiment="fig11")
        right = self._trace(tmp_path, "b", seed="7", experiment="fig11")
        capsys.readouterr()
        code = main(["obs", "diff", str(left), str(right)])
        assert code == 1
        out = capsys.readouterr().out
        assert "primary: seed" in out
        assert "first divergence at seq" in out

    def test_diff_missing_operand_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["obs", "diff", str(tmp_path / "nope.jsonl"),
             str(tmp_path / "also-nope.jsonl")]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_history_over_registered_runs(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        for name, seed in (("a", "2019"), ("b", "7")):
            main(
                ["--seed", seed, "trace", "fig01",
                 "--out", str(tmp_path / name), "--tail", "0",
                 "--store", str(store_dir)]
            )
        capsys.readouterr()
        code = main(["obs", "history", "--store", str(store_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "metrics history: 2 run(s)" in out
        assert "no regressions past 2.00x" in out

    def test_report_json_to_file(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        main(
            ["trace", "fig01", "--out", str(tmp_path / "run"),
             "--tail", "0", "--store", str(store_dir)]
        )
        capsys.readouterr()
        out_file = tmp_path / "report.json"
        code = main(
            ["obs", "report", "--store", str(store_dir),
             "--format", "json", "--out", str(out_file)]
        )
        assert code == 0
        import json

        document = json.loads(out_file.read_text())
        assert document["kind"] == "obs_report"
        assert len(document["runs"]) == 1

    def test_fleet_health_renders_triage_table(self, capsys):
        code = main(
            ["fleet", "health", "--chips", "3",
             "--trials", "2", "--cores", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet health: 3 chips x 2 cores" in out
        assert "outliers:" in out

    def test_fleet_health_json_document(self, capsys):
        import json

        code = main(
            ["fleet", "health", "--chips", "2",
             "--trials", "2", "--cores", "2", "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "fleet_health"
        assert len(document["chips"]) == 2

    def test_fleet_health_non_finite_fence_fails_cleanly(self, capsys, drawn):
        # A NaN fence compares false against every chip: before this was
        # rejected, the run printed "outliers: none" and exited 0.  The
        # fence is checked before the fleet is characterized, so no chip
        # is drawn.
        code = main(
            ["fleet", "health", "--chips", "2",
             "--trials", "1", "--cores", "2", "--fence-k", "nan"]
        )
        assert code == 1
        assert "error: fence k must be finite and > 0" in capsys.readouterr().err
        assert drawn == []


class TestFleetCli:
    def test_characterize_renders_summary(self, capsys):
        code = main(
            ["fleet", "characterize", "--chips", "2",
             "--trials", "2", "--cores", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet characterization: 2 chips x 2 cores" in out
        assert "rollback rate:" in out

    @pytest.mark.parametrize("width", ["nan", "inf"])
    def test_non_finite_alert_window_fails_before_drawing(
        self, tmp_path, capsys, drawn, width
    ):
        # NaN used to crash in the first chip's tsdb sample with a
        # traceback; inf ran and wrote "Infinity" (not JSON) to every
        # series file.
        code = main(
            ["fleet", "characterize", "--chips", "2", "--trials", "1",
             "--cores", "2", "--alerts", "default",
             "--tsdb", str(tmp_path / "tsdb"), "--alert-window", width]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: window width must be finite and > 0 ticks" in err
        assert drawn == []
        assert not (tmp_path / "tsdb").exists()

    def test_pooled_observed_run_succeeds(self, tmp_path, capsys):
        # Every gauge merges, so --jobs needs no special metrics mode.
        code = main(
            ["fleet", "characterize", "--chips", "4", "--trials", "1",
             "--cores", "2", "--jobs", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "fleet.manifest.json").exists()

    def test_characterize_with_out_writes_artifacts(self, tmp_path, capsys):
        code = main(
            ["fleet", "characterize", "--chips", "2",
             "--trials", "2", "--cores", "2", "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "fleet.events.jsonl").exists()
        assert (tmp_path / "fleet.manifest.json").exists()
        out = capsys.readouterr().out
        assert "event stream:" in out
        assert "manifest:" in out

    def test_zero_chips_fails_cleanly(self, capsys):
        code = main(["fleet", "characterize", "--chips", "0"])
        assert code == 1
        assert "chips must be >= 1" in capsys.readouterr().err

    def test_zero_chunk_fails_cleanly(self, capsys):
        code = main(
            ["fleet", "characterize", "--chips", "2", "--chunk", "0"]
        )
        assert code == 1
        assert "chunk size must be >= 1" in capsys.readouterr().err

    def test_reduction_requires_atm_mode(self, capsys):
        code = main(
            ["fleet", "characterize", "--chips", "2",
             "--mode", "static", "--reduction", "2"]
        )
        assert code == 1
        assert "reduction steps only apply to ATM mode" in (
            capsys.readouterr().err
        )


class TestAlertsCli:
    """A malformed number in a rule or SLO pack is a clean error, never a
    traceback or a rule that silently never fires."""

    @staticmethod
    def _pack(tmp_path, schema, key, entry):
        import json

        path = tmp_path / "pack.json"
        path.write_text(json.dumps({"schema": schema, key: [entry]}))
        return str(path)

    def test_list_rules_string_threshold_fails_cleanly(self, tmp_path, capsys):
        pack = self._pack(
            tmp_path, "alert_rules/v1", "rules",
            {"name": "floor", "kind": "threshold",
             "metric": "fleet.tuned_slowest_mhz", "threshold": "4500"},
        )
        code = main(["obs", "alerts", "list", "--rules", pack])
        assert code == 1
        assert "threshold must be a finite number" in capsys.readouterr().err

    def test_list_slo_nan_burn_threshold_fails_cleanly(self, tmp_path, capsys):
        pack = self._pack(
            tmp_path, "slo/v1", "slos",
            {"name": "budget", "metric": "fleet.probe_runs",
             "threshold": 100.0, "burn_threshold": float("nan")},
        )
        code = main(["obs", "alerts", "list", "--slo", pack])
        assert code == 1
        assert "burn_threshold must be a finite number" in (
            capsys.readouterr().err
        )

    def test_fleet_alerts_nan_fence_fails_cleanly(self, tmp_path, capsys):
        pack = self._pack(
            tmp_path, "alert_rules/v1", "rules",
            {"name": "outlier", "kind": "quantile_fence",
             "metric": "fleet.tuned_slowest_mhz", "fence_k": float("nan")},
        )
        code = main(
            ["fleet", "characterize", "--chips", "2", "--trials", "1",
             "--cores", "2", "--alerts", pack]
        )
        assert code == 1
        assert "fence_k must be a finite number" in capsys.readouterr().err


class TestStoreCli:
    def _populate(self, tmp_path, capsys):
        # Earlier in-process tests may have warmed the in-memory solve
        # cache; drop it so this pass fully populates the disk store.
        from repro.fastpath.cache import reset_solve_cache
        from repro.fastpath.store import reset_store

        reset_store()
        reset_solve_cache()
        store_dir = str(tmp_path / "store")
        assert main(
            ["fleet", "characterize", "--chips", "2", "--trials", "2",
             "--cores", "2", "--solve-store", store_dir]
        ) == 0
        return store_dir, capsys.readouterr().out

    def test_solve_store_warm_run_is_identical(self, tmp_path, capsys):
        from repro.fastpath.cache import reset_solve_cache
        from repro.fastpath.store import reset_store

        try:
            store_dir, cold_out = self._populate(tmp_path, capsys)
            assert "solve store" in cold_out
            # Drop the process-global store and in-memory cache so the
            # second in-process invocation behaves like a fresh process:
            # counters start at zero and every solve consults the disk.
            reset_store()
            reset_solve_cache()
            assert main(
                ["fleet", "characterize", "--chips", "2", "--trials", "2",
                 "--cores", "2", "--solve-store", store_dir]
            ) == 0
            warm_out = capsys.readouterr().out

            def _report(text):
                return [
                    line for line in text.splitlines()
                    if not line.startswith("solve store")
                ]

            assert _report(warm_out) == _report(cold_out)
            assert "0 misses" in warm_out
        finally:
            reset_store()
            reset_solve_cache()

    def test_stats_verify_prune_round_trip(self, tmp_path, capsys):
        from repro.fastpath.store import reset_store

        try:
            store_dir, _ = self._populate(tmp_path, capsys)
        finally:
            reset_store()
        assert main(["store", "stats", store_dir]) == 0
        out = capsys.readouterr().out
        assert "records:" in out
        assert "compiled" in out
        assert main(["store", "verify", store_dir]) == 0
        assert "0 corrupt" in capsys.readouterr().out
        assert main(["store", "prune", store_dir]) == 0
        assert "kept" in capsys.readouterr().out

    def test_verify_flags_corruption(self, tmp_path, capsys):
        from pathlib import Path

        from repro.fastpath.store import reset_store

        try:
            store_dir, _ = self._populate(tmp_path, capsys)
        finally:
            reset_store()
        dat = Path(store_dir) / "store.dat"
        blob = bytearray(dat.read_bytes())
        blob[-1] ^= 0xFF
        dat.write_bytes(bytes(blob))
        assert main(["store", "verify", store_dir]) == 1
        assert "CORRUPT" in capsys.readouterr().out

    def test_missing_store_dir_fails_cleanly(self, tmp_path, capsys):
        code = main(["store", "stats", str(tmp_path / "nope")])
        assert code == 1
        assert "no solve store directory" in capsys.readouterr().err
