"""Command-line interface: characterize, deploy, schedule, reproduce.

Mirrors the stages a vendor/operator would actually run:

``python -m repro experiment <id|all> [--jobs N]``
    Regenerate one (or every) paper table/figure and print the report;
    ``--jobs`` fans the suite across a process pool with identical output.
``python -m repro bench [--repeat N] [--baseline-s S]``
    Time the experiment suite and write the BENCH_solver.json artifact.
``python -m repro characterize [--seed N] [--random] [--out FILE]``
    Run the Fig. 6 methodology on the testbed (or a sampled chip) and
    optionally save the limit table as JSON.
``python -m repro deploy --limits FILE [--rollback N] [--out FILE]``
    Run the stress-test deployment against saved limits.
``python -m repro schedule --critical APP --background APP [--qos X]``
    Evaluate the Fig. 14 scenarios for one application pair.
``python -m repro trace <id>``
    Run one experiment under full observability and show its event trace,
    writing the JSONL stream plus run manifest.
``python -m repro metrics <id>``
    Same observed run, reported as the instrument summary table.
``python -m repro obs selfcheck``
    End-to-end smoke test of the observability pipeline.
``python -m repro obs diff <left> <right>``
    First-divergence diff of two observed runs (event streams and/or
    manifests); exits non-zero on any divergence or manifest drift.
``python -m repro obs flame <run> [--format chrome|speedscope]``
    Export a run's span tree as a Chrome-trace or speedscope profile.
``python -m repro obs history --store DIR [--format table|json]``
    Per-metric time series across registered runs with regression *and*
    improvement flags (signed delta + direction).
``python -m repro obs report --store DIR [--format markdown|json]``
    Deterministic digest: registry, history, spans, optional fleet health.
``python -m repro obs export [run] [--tsdb DIR] [--format openmetrics]``
    OpenMetrics text page over a run's metric summary and/or persisted
    tsdb series — byte-identical across same-seed runs.
``python -m repro obs alerts list|eval``
    Show a rule pack, or evaluate it over a recorded run's event stream
    (tolerant of truncated segments); ``eval`` exits non-zero on firings.
``python -m repro fleet characterize --chips N [--jobs J] [--solve-store DIR]``
    Chunked fleet characterization; streaming gauges and
    ``--segment-events`` keep memory bounded at any fleet size, and the
    outputs are byte-identical across chunk sizes and job counts.
    ``--solve-store`` persists characterizations and converged states so
    a warm second run replays them from disk and only compiles each chip.
    ``--alerts``/``--slo`` evaluate rule packs over per-chip series
    captured into a tsdb (``--tsdb DIR`` persists the series files) and
    print an incident digest, exiting non-zero on any firing.
``python -m repro store stats|verify|prune DIR``
    Inspect, checksum-verify, or compact a persistent solve store.
``python -m repro fleet health --chips N``
    Outlier-chip triage over a sampled fleet (quantile fences).
``python -m repro list-workloads``
    Show every modeled workload and its observables.
``python -m repro lint [paths]``
    Run the domain linter (also available as ``python -m repro.lint``).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from .atm.chip_sim import ChipSim
from .core.characterize import Characterizer
from .core.limits import LimitTable
from .core.manager import AtmManager
from .core.persistence import (
    load_limit_table,
    save_deployment,
    save_limit_table,
)
from .core.stress_test import StressTestProcedure
from .errors import ReproError
from .experiments import REGISTRY, run_experiment
from .experiments.common import run_observed
from .lint.cli import add_lint_arguments, run_lint
from .obs.metrics import render_summary_table
from .obs.selfcheck import run_selfcheck
from .obs.sinks import event_to_json_line, read_jsonl
from .rng import RngStreams
from .silicon import power7plus_testbed, sample_chip
from .workloads.classification import is_critical
from .workloads.registry import ALL_WORKLOADS, get_workload


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.id == "all":
        # Local imports: the profiling tracer (the RL002-exempt wall-clock
        # path) only loads when the harness digest actually needs it.
        from .analysis.report import HEADLINE_METRICS
        from .obs.profiling import wall_clock_tick_source
        from .obs.trace import Tracer

        tracer = Tracer(wall_source=wall_clock_tick_source)
        results = {}
        pool = None
        futures = {}
        if args.jobs > 1:
            # Fan the suite out, then consume results in registry order so
            # stdout is laid out exactly as a serial run; only the digest's
            # wall-clock column can differ.
            from concurrent.futures import ProcessPoolExecutor

            from .experiments.runner import _run_one

            pool = ProcessPoolExecutor(max_workers=args.jobs)
            futures = {
                experiment_id: pool.submit(_run_one, experiment_id, args.seed)
                for experiment_id in REGISTRY
            }
        try:
            for experiment_id in REGISTRY:
                with tracer.span("experiment", id=experiment_id):
                    if pool is not None:
                        result = futures[experiment_id].result()
                    else:
                        result = run_experiment(experiment_id, seed=args.seed)
                results[experiment_id] = result
                print(result.render())
                print()
        finally:
            if pool is not None:
                pool.shutdown()
        print("digest (wall-clock per experiment):")
        for span, (experiment_id, result) in zip(
            tracer.finished, results.items()
        ):
            metric_name = HEADLINE_METRICS.get(experiment_id)
            if metric_name is not None and metric_name in result.metrics:
                headline = f"{metric_name}={result.metrics[metric_name]:.4g}"
            else:
                headline = "(no headline metric)"
            print(f"  {experiment_id:<16} {span.wall_s:7.2f}s  {headline}")
        return 0
    print(run_experiment(args.id, seed=args.seed).render())
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .analysis.bench import compare_to_baseline, run_bench
    from .obs.stream.gates import check_ratio_gate

    check_ratio_gate(args.compare_threshold, args.noise_floor_ms)
    ids = (
        [part.strip() for part in args.experiments.split(",") if part.strip()]
        if args.experiments
        else None
    )
    report = run_bench(
        ids,
        seed=args.seed,
        jobs=args.jobs,
        repeat=args.repeat,
        baseline_total_s=args.baseline_s,
        out_path=args.out,
        fleet_chips=args.fleet_chips,
        obs_chips=args.obs_chips,
        store_chips=args.store_chips,
        export_chips=args.export_chips,
    )
    print(report.render())
    print(f"bench report written to {args.out}")
    if args.compare:
        ok, text = compare_to_baseline(
            report,
            args.compare,
            threshold=args.compare_threshold,
            noise_floor_s=args.noise_floor_ms / 1000.0,
        )
        print(text)
        if not ok:
            return 1
    return 0


def _cmd_fleet_characterize(args: argparse.Namespace) -> int:
    from .atm.chip_sim import MarginMode
    from .core.fleet import characterize_fleet, run_fleet_observed
    from .fastpath.store import configure_store
    from .obs.stream.progress import ProgressReporter

    if args.solve_store:
        configure_store(args.solve_store)
    alert_rules, alert_slos = _load_alert_packs(args.alerts, args.slo)
    tsdb = None
    if alert_rules or alert_slos or args.tsdb:
        from .obs.tsdb import Tsdb

        tsdb = Tsdb("fleet", args.seed, window_ticks=args.alert_window)
    progress = None
    if args.progress:
        # Operator-facing only: stderr, never the event stream or manifest.
        progress = ProgressReporter(
            args.chips,
            write=sys.stderr.write,
            label="fleet characterize",
            unit="chips",
        )
    kwargs = dict(
        chunk_size=args.chunk,
        trials=args.trials,
        n_cores=args.cores,
        mode=MarginMode(args.mode),
        reduction_steps=args.reduction,
        jobs=args.jobs,
        progress=progress,
        tsdb=tsdb,
    )
    try:
        if args.out:
            run = run_fleet_observed(
                args.chips,
                out_dir=args.out,
                seed=args.seed,
                segment_events=args.segment_events,
                **kwargs,
            )
            if progress is not None:
                progress.finish()
            print(run.report.render())
            print(
                f"\nevent stream: {run.events_path} ({run.event_count} events)"
            )
            print(f"manifest: {run.manifest_path}")
            _print_store_traffic()
            return _finish_fleet_alerts(
                tsdb, alert_rules, alert_slos, args.tsdb
            )
        report = characterize_fleet(args.chips, seed=args.seed, **kwargs)
    finally:
        if progress is not None:
            progress.finish()
    print(report.render())
    _print_store_traffic()
    return _finish_fleet_alerts(tsdb, alert_rules, alert_slos, args.tsdb)


def _load_alert_packs(rules_arg: str | None, slo_arg: str | None):
    """Resolve ``--alerts``/``--slo`` values to rule/SLO tuples."""
    rules = ()
    slos = ()
    if rules_arg:
        from .obs.alerts import default_rule_pack, load_rule_pack

        rules = (
            default_rule_pack()
            if rules_arg == "default"
            else load_rule_pack(rules_arg)
        )
    if slo_arg:
        from .obs.alerts import load_slo_pack

        slos = load_slo_pack(slo_arg)
    return rules, slos


def _finish_fleet_alerts(tsdb, rules, slos, store_dir: str | None) -> int:
    """Persist captured fleet series, then print the incident digest."""
    if tsdb is None:
        return 0
    if store_dir:
        from .obs.tsdb import TsdbStore

        paths = TsdbStore(store_dir).write(tsdb)
        print(f"tsdb: {len(paths)} series file(s) under {store_dir}")
    if not rules and not slos:
        return 0
    from .obs.alerts import evaluate_rules

    outcome = evaluate_rules(tsdb, rules, slos)
    print()
    print(outcome.render())
    return 1 if outcome.fired else 0


def _print_store_traffic() -> None:
    """One stdout line of persistent-store traffic, when one is live.

    Operator-facing only — the counters describe what was cached on this
    machine, so they never appear in the report or the run manifest.
    """
    from .fastpath.store import get_store

    store = get_store()
    if store is None:
        return
    stats = store.stats()
    print(
        f"solve store {store.root}: {stats['hits']} hits / "
        f"{stats['misses']} misses / {stats['writes']} writes "
        f"({stats['entries']} records"
        + (f", {stats['corrupt_entries']} corrupt)"
          if stats["corrupt_entries"] else ")")
    )


def _register_run(run, store_dir: str | None) -> None:
    """Register an observed run's artifacts into a run-store directory."""
    if not store_dir:
        return
    from .obs.analyze.store import RunStore

    record = RunStore(store_dir).put(run.manifest_path, run.events_path)
    print(f"registered as {record.run_id} in {store_dir}")


def _cmd_trace(args: argparse.Namespace) -> int:
    run = run_observed(args.id, seed=args.seed, out_dir=args.out)
    print(run.manifest.render())
    events = list(read_jsonl(run.events_path))
    counts: dict[str, int] = {}
    for event in events:
        name = type(event).__name__
        counts[name] = counts.get(name, 0) + 1
    print(f"event stream: {run.events_path} ({run.event_count} events)")
    for name in sorted(counts):
        print(f"  {name}: {counts[name]}")
    if args.tail > 0 and events:
        tail = events[-args.tail:]
        print(f"last {len(tail)} event(s):")
        for event in tail:
            print(f"  {event_to_json_line(event)}")
    print(f"manifest: {run.manifest_path}")
    _register_run(run, args.store)
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    run = run_observed(args.id, seed=args.seed, out_dir=args.out)
    print(run.manifest.render())
    print()
    print(
        render_summary_table(
            run.manifest.metrics_summary, title=f"metrics: {args.id}"
        )
    )
    print(f"\nevent stream: {run.events_path}")
    print(f"manifest: {run.manifest_path}")
    _register_run(run, args.store)
    return 0


def _cmd_obs_selfcheck(_args: argparse.Namespace) -> int:
    ok, report = run_selfcheck()
    print(report)
    return 0 if ok else 1


def _resolve_run_artifacts(arg: str, run_id: str | None):
    """Resolve a diff operand to ``(events_path, manifest_path)``.

    Accepts a run directory (``runs/``, disambiguated by ``--id`` when it
    holds several runs), an ``.events.jsonl`` stream (single-file, or the
    logical path of a segmented stream whose ``.segments.json`` index sits
    beside it), or a ``.manifest.json`` manifest; siblings are picked up
    automatically.
    """
    from .errors import ConfigurationError
    from .obs.stream.rotate import segment_index_path

    def _stream_exists(events: Path) -> bool:
        return events.exists() or segment_index_path(events).exists()

    path = Path(arg)
    if path.is_dir():
        manifests = sorted(path.glob("*.manifest.json"))
        if run_id is not None:
            base = run_id
        elif len(manifests) == 1:
            base = manifests[0].name[: -len(".manifest.json")]
        else:
            raise ConfigurationError(
                f"{path} holds {len(manifests)} run(s); pass --id to pick one"
            )
        events = path / f"{base}.events.jsonl"
        manifest = path / f"{base}.manifest.json"
        if not _stream_exists(events) and not manifest.exists():
            raise ConfigurationError(f"no run artifacts for {base!r} in {path}")
        return (events if _stream_exists(events) else None,
                manifest if manifest.exists() else None)
    if not path.exists() and not (
        path.name.endswith(".events.jsonl") and _stream_exists(path)
    ):
        raise ConfigurationError(f"no run artifact at {path}")
    name = path.name
    if name.endswith(".events.jsonl"):
        sibling = path.with_name(
            name[: -len(".events.jsonl")] + ".manifest.json"
        )
        return path, (sibling if sibling.exists() else None)
    if name.endswith(".jsonl"):
        return path, None
    if name.endswith(".manifest.json"):
        sibling = path.with_name(
            name[: -len(".manifest.json")] + ".events.jsonl"
        )
        return (sibling if sibling.exists() else None), path
    if name.endswith(".json"):
        return None, path
    raise ConfigurationError(
        f"{path} is neither a run directory, a .jsonl stream, nor a manifest"
    )


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from .errors import ConfigurationError
    from .obs.analyze.diff import diff_manifests, diff_streams

    left_events, left_manifest = _resolve_run_artifacts(args.left, args.id)
    right_events, right_manifest = _resolve_run_artifacts(args.right, args.id)
    compared = False
    diverged = False
    if left_manifest is not None and right_manifest is not None:
        manifest_diff = diff_manifests(left_manifest, right_manifest)
        print(manifest_diff.render())
        compared = True
        diverged = diverged or not manifest_diff.identical
    if left_events is not None and right_events is not None:
        stream_diff = diff_streams(left_events, right_events, context=args.context)
        print(stream_diff.render())
        compared = True
        diverged = diverged or not stream_diff.identical
    if not compared:
        raise ConfigurationError(
            "the two operands share no comparable artifacts "
            "(need two event streams and/or two manifests)"
        )
    return 1 if diverged else 0


def _cmd_obs_flame(args: argparse.Namespace) -> int:
    from .errors import ConfigurationError
    from .obs.sinks import read_jsonl_documents
    from .obs.stream.flame import render_flame

    events_path, _ = _resolve_run_artifacts(args.run, args.id)
    if events_path is None:
        raise ConfigurationError(
            f"{args.run} has no event stream to export a flame graph from"
        )
    documents, skipped = read_jsonl_documents(events_path, tolerant=True)
    if skipped:
        print(
            f"warning: {skipped} truncated line(s) skipped in {events_path}",
            file=sys.stderr,
        )
    name = events_path.name
    if name.endswith(".events.jsonl"):
        name = name[: -len(".events.jsonl")]
    text = render_flame(documents, args.format, name=name)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"{args.format} profile written to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_obs_history(args: argparse.Namespace) -> int:
    import json as _json

    from .obs.analyze.history import (
        bench_wall_series,
        build_history,
        flag_improvements,
        flag_regressions,
        history_to_dict,
        render_history,
    )
    from .obs.analyze.store import RunStore
    from .obs.stream.gates import check_ratio_gate

    check_ratio_gate(args.threshold, args.noise_floor_ms)
    store = RunStore(args.store)
    metrics = (
        [part.strip() for part in args.metrics.split(",") if part.strip()]
        if args.metrics
        else None
    )
    series = list(
        build_history(store, experiment_id=args.experiment, metrics=metrics)
    )
    series.extend(bench_wall_series(args.bench or ()))
    flags = flag_regressions(
        series,
        threshold=args.threshold,
        wall_min_delta=args.noise_floor_ms / 1000.0,
    )
    improvements = flag_improvements(
        series,
        threshold=args.threshold,
        wall_min_delta=args.noise_floor_ms / 1000.0,
    )
    if args.format == "json":
        document = history_to_dict(
            series, flags, improvements, threshold=args.threshold
        )
        print(_json.dumps(document, indent=2, sort_keys=True))
    else:
        print(
            render_history(
                series,
                flags,
                improvements=improvements,
                title=f"metrics history: {len(store.run_ids())} run(s)",
                threshold=args.threshold,
            )
        )
    return 1 if flags else 0


def _cmd_obs_export(args: argparse.Namespace) -> int:
    from .errors import ConfigurationError
    from .obs.manifest import load_manifest
    from .obs.tsdb import TsdbStore, render_openmetrics

    summary = None
    labels = None
    tsdb = None
    if args.run:
        _, manifest_path = _resolve_run_artifacts(args.run, args.id)
        if manifest_path is None:
            raise ConfigurationError(
                f"{args.run} has no manifest to export metrics from"
            )
        manifest = load_manifest(manifest_path)
        summary = manifest.metrics_summary
        labels = {
            "experiment": manifest.experiment_id,
            "seed": str(manifest.seed),
        }
    if args.tsdb:
        store = TsdbStore(args.tsdb)
        runs = store.runs()
        if args.experiment is not None:
            runs = [run for run in runs if run[0] == args.experiment]
        if len(runs) > 1:
            seeded = [run for run in runs if run[1] == args.seed]
            if len(seeded) == 1:
                runs = seeded
        if len(runs) != 1:
            names = ", ".join(f"{exp}@s{seed}" for exp, seed in runs)
            raise ConfigurationError(
                f"{args.tsdb} holds {len(runs)} matching run(s)"
                + (f" ({names})" if names else "")
                + "; pass --experiment/--seed to pick exactly one"
            )
        experiment, seed = runs[0]
        tsdb = store.load_run(experiment, seed)
        if labels is None:
            labels = {"experiment": experiment, "seed": str(seed)}
    if summary is None and tsdb is None:
        raise ConfigurationError(
            "nothing to export: give a run operand and/or --tsdb DIR"
        )
    text = render_openmetrics(summary=summary, tsdb=tsdb, labels=labels)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"openmetrics page written to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_obs_alerts_list(args: argparse.Namespace) -> int:
    from .analysis.rendering import ascii_table
    from .errors import ConfigurationError
    from .obs.alerts import SLO_KIND

    rules, slos = _load_alert_packs(args.rules, args.slo)
    if not rules and not slos:
        raise ConfigurationError("nothing to list: pass --rules and/or --slo")
    rows = [
        (rule.name, rule.kind, rule.metric, rule.severity, rule.describe())
        for rule in rules
    ] + [
        (slo.name, SLO_KIND, slo.metric, slo.severity, slo.describe())
        for slo in slos
    ]
    print(
        ascii_table(
            ("name", "kind", "metric", "severity", "predicate"),
            rows,
            title=f"{len(rules)} rule(s), {len(slos)} slo(s)",
        )
    )
    return 0


def _cmd_obs_alerts_eval(args: argparse.Namespace) -> int:
    from .errors import ConfigurationError
    from .obs.alerts import evaluate_rules
    from .obs.manifest import load_manifest
    from .obs.tsdb import Tsdb, TsdbStore, capture_stream, capture_summary

    rules, slos = _load_alert_packs(args.rules, args.slo)
    if not rules and not slos:
        raise ConfigurationError(
            "nothing to evaluate: pass --rules and/or --slo"
        )
    events_path, manifest_path = _resolve_run_artifacts(args.run, args.id)
    manifest = None
    experiment = None
    seed = args.seed
    if manifest_path is not None:
        manifest = load_manifest(manifest_path)
        experiment = manifest.experiment_id
        seed = manifest.seed
    elif events_path is not None:
        experiment = events_path.name
        if experiment.endswith(".events.jsonl"):
            experiment = experiment[: -len(".events.jsonl")]
    if experiment is None:
        raise ConfigurationError(f"{args.run} has no run artifacts to evaluate")
    tsdb = Tsdb(experiment, seed, window_ticks=args.window)
    skipped = 0
    if events_path is not None:
        _, skipped = capture_stream(tsdb, events_path)
    if manifest is not None:
        capture_summary(tsdb, manifest.metrics_summary)
    outcome = evaluate_rules(tsdb, rules, slos, skipped_lines=skipped)
    if args.tsdb:
        TsdbStore(args.tsdb).write(tsdb)
    if args.out:
        outcome.write_events(args.out)
    if args.json:
        print(outcome.to_json(), end="")
    else:
        print(outcome.render())
    return 1 if outcome.fired else 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from .obs.analyze.report import build_report, render_json, render_markdown
    from .obs.analyze.store import RunStore
    from .obs.stream.gates import check_ratio_gate

    check_ratio_gate(args.threshold)
    fleet_health = None
    if args.fleet_chips > 0:
        from .core.fleet_health import assess_fleet

        fleet_health = assess_fleet(
            args.fleet_chips, seed=args.seed, trials=args.trials
        ).to_dict()
    report = build_report(
        RunStore(args.store),
        threshold=args.threshold,
        bench_paths=args.bench or (),
        fleet_health=fleet_health,
    )
    text = render_json(report) if args.format == "json" else render_markdown(report)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"report written to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_fleet_health(args: argparse.Namespace) -> int:
    import json as _json

    from .core.fleet_health import assess_fleet

    report = assess_fleet(
        args.chips,
        seed=args.seed,
        trials=args.trials,
        n_cores=args.cores,
        fence_k=args.fence_k,
    )
    if args.json:
        print(_json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        print(report.render())
    return 0


def _check_store_dir(path: str) -> None:
    from .errors import ConfigurationError

    if not Path(path).is_dir():
        raise ConfigurationError(f"no solve store directory at {path}")


def _cmd_store_stats(args: argparse.Namespace) -> int:
    from .fastpath.store import SolveStore

    _check_store_dir(args.dir)
    store = SolveStore(args.dir, writable=False)
    try:
        report = store.verify()
    finally:
        store.close()
    print(f"solve store {report['path']} "
          f"(format v{report['format_version']}, "
          f"{'usable' if report['usable'] else 'UNUSABLE'})")
    print(f"  records: {report['entries']}")
    for kind, count in sorted(report["entries_by_kind"].items()):
        print(f"    {kind:<9} {count}")
    print(f"  data bytes: {report['data_bytes']}")
    print(f"  reclaimable: {report['unreferenced_bytes']} "
          f"(superseded, torn or retired-kind records; "
          f"`repro store prune` compacts)")
    if report["corrupt"]:
        print(f"  corrupt: {report['corrupt']} record(s) dropped on read")
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    from .fastpath.store import SolveStore

    _check_store_dir(args.dir)
    store = SolveStore(args.dir, writable=False)
    try:
        report = store.verify()
    finally:
        store.close()
    ok = report["usable"] and report["corrupt"] == 0
    status = "ok" if ok else "CORRUPT"
    print(
        f"solve store {report['path']}: {status} — "
        f"{report['entries']} record(s) verified, "
        f"{report['corrupt']} corrupt"
    )
    if not report["usable"]:
        print("  index/data header mismatch: store is ignored by readers "
              "(runs recompute; prune or delete the directory)")
    return 0 if ok else 1


def _cmd_store_prune(args: argparse.Namespace) -> int:
    from .fastpath.store import SolveStore

    _check_store_dir(args.dir)
    store = SolveStore(args.dir)
    try:
        before = store.verify()
        report = store.prune(max_bytes=args.max_bytes)
    finally:
        store.close()
    dropped = before["entries"] - report["kept"]
    reclaimed = before["data_bytes"] - report["data_bytes"]
    print(
        f"solve store {report['path']}: kept {report['kept']} record(s), "
        f"dropped {dropped}, reclaimed {reclaimed} bytes, "
        f"data now {report['data_bytes']} bytes"
    )
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    characterizer = Characterizer(RngStreams(args.seed), trials=args.trials)
    if args.random:
        chip = sample_chip(args.seed)
        characterization = characterizer.characterize_chip(chip)
        table = LimitTable(characterization.limits)
    else:
        server = power7plus_testbed(args.seed)
        table, _ = characterizer.characterize_server(server)
    print(table.render())
    if args.out:
        path = save_limit_table(table, args.out)
        print(f"\nlimit table written to {path}")
    return 0


def _cmd_deploy(args: argparse.Namespace) -> int:
    limits = load_limit_table(args.limits)
    server = power7plus_testbed(args.seed)
    procedure = StressTestProcedure(RngStreams(args.seed))
    for chip in server.chips:
        if any(core.label not in limits for core in chip.cores):
            continue
        config = procedure.deploy_chip(chip, limits, rollback_steps=args.rollback)
        sim = ChipSim(chip)
        freqs = config.idle_frequencies_mhz(sim)
        print(f"{chip.chip_id}: deployed reductions "
              f"{list(config.reductions(chip))}")
        for label, freq in freqs.items():
            print(f"  {label}: {freq:.0f} MHz")
        print(f"  speed differential: {config.speed_differential_mhz(sim):.0f} MHz")
        if args.out:
            path = save_deployment(config, f"{args.out}.{chip.chip_id}.json")
            print(f"  deployment written to {path}")
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    critical = get_workload(args.critical)
    background = get_workload(args.background)
    if not is_critical(critical):
        print(f"error: {critical.name} is not a critical application",
              file=sys.stderr)
        return 2
    server = power7plus_testbed(args.seed)
    chip = server.chips[0]
    sim = ChipSim(chip)
    characterizer = Characterizer(RngStreams(args.seed), trials=args.trials)
    characterization = characterizer.characterize_chip(chip)
    manager = AtmManager(sim, LimitTable(characterization.limits))

    criticals = [critical]
    backgrounds = [background] * (chip.n_cores - 1)
    scenarios = [
        manager.run_static_margin(criticals, backgrounds),
        manager.run_default_atm(criticals, backgrounds),
        manager.run_unmanaged_finetuned(criticals, backgrounds),
        manager.run_managed_max(criticals, backgrounds),
        manager.run_managed_qos(criticals, backgrounds, target_speedup=args.qos),
    ]
    base = scenarios[0].critical_speedups[critical.name]
    print(f"{critical.name} co-located with {chip.n_cores - 1}x {background.name}")
    for result in scenarios:
        gain = 100.0 * (result.critical_speedups[critical.name] / base - 1.0)
        print(
            f"  {result.scenario:<45} gain {gain:5.1f}%  "
            f"chip {result.state.chip_power_w:6.1f} W  "
            f"bg: {result.background_setting}"
        )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import write_report

    ids = (
        tuple(part.strip() for part in args.experiments.split(",") if part.strip())
        if args.experiments
        else None
    )
    path = write_report(args.out, seed=args.seed, experiment_ids=ids)
    print(f"report written to {path}")
    return 0


def _cmd_list_workloads(_args: argparse.Namespace) -> int:
    header = (
        f"{'name':<18} {'suite':<11} {'activity':>8} {'stress':>7} "
        f"{'didt':>6} {'mem':>5}  role"
    )
    print(header)
    print("-" * len(header))
    for name in sorted(ALL_WORKLOADS):
        workload = ALL_WORKLOADS[name]
        try:
            role = "critical" if is_critical(workload) else "background"
        except ReproError:
            role = "(test tool)"
        print(
            f"{workload.name:<18} {workload.suite.value:<11} "
            f"{workload.activity:>8.2f} {workload.stress:>7.2f} "
            f"{workload.didt_activity:>6.2f} {workload.mem_boundedness:>5.2f}  {role}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ATM fine-tuning reproduction (HPCA 2019)",
    )
    parser.add_argument("--seed", type=int, default=2019, help="experiment seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument("id", choices=[*REGISTRY, "all"])
    p_exp.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for `all` (1 = serial; output is identical "
             "either way, modulo digest wall-clock)",
    )
    p_exp.set_defaults(func=_cmd_experiment)

    p_bench = sub.add_parser(
        "bench", help="wall-clock benchmark of the experiment suite"
    )
    p_bench.add_argument("--out", default="BENCH_solver.json",
                         help="benchmark artifact path")
    p_bench.add_argument(
        "--experiments",
        help="comma-separated experiment ids (default: all)",
    )
    p_bench.add_argument("--repeat", type=int, default=1,
                         help="passes over the suite; best wall is kept")
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="worker processes (1 = per-experiment timing)")
    p_bench.add_argument(
        "--baseline-s", type=float, default=None, dest="baseline_s",
        help="reference suite wall-clock to compute the speedup against",
    )
    p_bench.add_argument(
        "--compare", default=None,
        help="committed bench artifact to diff against; exits non-zero "
             "past the regression threshold",
    )
    p_bench.add_argument(
        "--compare-threshold", type=float, default=2.0,
        dest="compare_threshold",
        help="fail when fresh/baseline total wall exceeds this ratio",
    )
    p_bench.add_argument(
        "--noise-floor-ms", type=float, default=50.0, dest="noise_floor_ms",
        help="absolute wall-clock slack for --compare: deltas below this "
             "are scheduling noise, never a regression",
    )
    p_bench.add_argument(
        "--store-chips", type=int, default=0, dest="store_chips",
        help="also bench the persistent solve store: characterize N chips "
             "cold vs warm against a temporary store (0 skips)",
    )
    p_bench.add_argument(
        "--fleet-chips", type=int, default=0, dest="fleet_chips",
        help="also bench fleet solving over N sampled chips: population "
             "batch vs chip-at-a-time loop (0 skips)",
    )
    p_bench.add_argument(
        "--obs-chips", type=int, default=0, dest="obs_chips",
        help="also bench obs overhead: characterize N chips dark vs "
             "observed with metrics only (0 skips)",
    )
    p_bench.add_argument(
        "--export-chips", type=int, default=0, dest="export_chips",
        help="also bench the alerting layer: characterize N chips plain "
             "vs tsdb-captured + default-pack evaluation, plus the "
             "OpenMetrics export (0 skips)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_fleet = sub.add_parser(
        "fleet", help="fleet-scale population studies over sampled chips"
    )
    fleet_sub = p_fleet.add_subparsers(dest="fleet_command", required=True)
    p_fchar = fleet_sub.add_parser(
        "characterize",
        help="run the Fig. 6 idle/uBench methodology over a sampled fleet "
             "in memory-bounded chunks",
    )
    p_fchar.add_argument("--chips", type=int, required=True,
                         help="fleet size (sampled chips)")
    p_fchar.add_argument("--chunk", type=int, default=64,
                         help="chips per memory-bounded processing chunk")
    p_fchar.add_argument("--trials", type=int, default=4)
    p_fchar.add_argument("--cores", type=int, default=8,
                         help="cores per sampled chip")
    p_fchar.add_argument(
        "--mode", choices=["static", "atm", "gated"], default="atm",
        help="margin mode of the baseline operating point",
    )
    p_fchar.add_argument(
        "--reduction", type=int, default=0,
        help="uniform CPM reduction of the baseline row (ATM mode only)",
    )
    p_fchar.add_argument("--out", default=None,
                         help="write fleet.events.jsonl + fleet.manifest.json here")
    p_fchar.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the chunk fan-out (1 = serial; the "
             "report and metric summaries are byte-identical either way)",
    )
    p_fchar.add_argument(
        "--segment-events", type=int, default=0, dest="segment_events",
        help="rotate the observed event stream every N events "
             "(0 = single file; the manifest digest is identical either way)",
    )
    p_fchar.add_argument(
        "--progress", action="store_true",
        help="live chips/s + ETA on stderr (wall clock stays out of "
             "artifacts)",
    )
    p_fchar.add_argument(
        "--solve-store", default=None, dest="solve_store",
        help="persist characterizations and converged states in this "
             "directory; a warm second run replays them from disk with "
             "byte-identical outputs",
    )
    p_fchar.add_argument(
        "--alerts", default=None,
        help="alert-rule pack JSON to evaluate over the captured per-chip "
             "series, or 'default' for the shipped pack; exits non-zero "
             "on any firing",
    )
    p_fchar.add_argument(
        "--slo", default=None,
        help="SLO pack JSON evaluated alongside --alerts (burn-rate "
             "targets over the same tick windows)",
    )
    p_fchar.add_argument(
        "--tsdb", default=None,
        help="persist the captured per-chip series into this tsdb store "
             "directory (merge-on-write; byte-identical across --jobs)",
    )
    p_fchar.add_argument(
        "--alert-window", type=float, default=64.0, dest="alert_window",
        help="tick-window width for the captured series (chips per "
             "window; alert rules reduce over these windows)",
    )
    p_fchar.set_defaults(func=_cmd_fleet_characterize)

    p_fhealth = fleet_sub.add_parser(
        "health",
        help="quantile-fence outlier triage over a characterized fleet",
    )
    p_fhealth.add_argument("--chips", type=int, required=True,
                           help="fleet size (sampled chips)")
    p_fhealth.add_argument("--trials", type=int, default=4)
    p_fhealth.add_argument("--cores", type=int, default=8,
                           help="cores per sampled chip")
    p_fhealth.add_argument(
        "--fence-k", type=float, default=1.5, dest="fence_k",
        help="fence multiplier over the quantile spreads",
    )
    p_fhealth.add_argument(
        "--json", action="store_true",
        help="print the canonical JSON document instead of the table",
    )
    p_fhealth.set_defaults(func=_cmd_fleet_health)

    p_store = sub.add_parser(
        "store", help="inspect / maintain a persistent solve store"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_sstats = store_sub.add_parser(
        "stats", help="record counts, bytes, and reclaimable space"
    )
    p_sstats.add_argument("dir", help="solve-store directory")
    p_sstats.set_defaults(func=_cmd_store_stats)
    p_sverify = store_sub.add_parser(
        "verify",
        help="re-check every record's bounds and checksum; exits non-zero "
             "on any corruption",
    )
    p_sverify.add_argument("dir", help="solve-store directory")
    p_sverify.set_defaults(func=_cmd_store_verify)
    p_sprune = store_sub.add_parser(
        "prune",
        help="compact the store: drop corrupt, superseded, and torn "
             "records (oldest-first down to --max-bytes)",
    )
    p_sprune.add_argument("dir", help="solve-store directory")
    p_sprune.add_argument(
        "--max-bytes", type=int, default=None, dest="max_bytes",
        help="data-file budget; oldest records are dropped until it fits",
    )
    p_sprune.set_defaults(func=_cmd_store_prune)

    p_char = sub.add_parser("characterize", help="run the Fig. 6 methodology")
    p_char.add_argument("--random", action="store_true",
                        help="characterize a sampled chip instead of the testbed")
    p_char.add_argument("--trials", type=int, default=10)
    p_char.add_argument("--out", help="write the limit table JSON here")
    p_char.set_defaults(func=_cmd_characterize)

    p_dep = sub.add_parser("deploy", help="stress-test deployment from saved limits")
    p_dep.add_argument("--limits", required=True, help="limit table JSON")
    p_dep.add_argument("--rollback", type=int, default=0)
    p_dep.add_argument("--out", help="write per-chip deployment JSON with this prefix")
    p_dep.set_defaults(func=_cmd_deploy)

    p_sched = sub.add_parser("schedule", help="evaluate the Fig. 14 scenarios")
    p_sched.add_argument("--critical", required=True)
    p_sched.add_argument("--background", required=True)
    p_sched.add_argument("--qos", type=float, default=1.10)
    p_sched.add_argument("--trials", type=int, default=8)
    p_sched.set_defaults(func=_cmd_schedule)

    p_trace = sub.add_parser(
        "trace", help="observed experiment run: event stream + manifest"
    )
    p_trace.add_argument("id", choices=list(REGISTRY))
    p_trace.add_argument("--out", default="runs", help="artifact directory")
    p_trace.add_argument(
        "--tail", type=int, default=5,
        help="trailing events to print (0 disables)",
    )
    p_trace.add_argument(
        "--store", default=None,
        help="register the run into this run-registry directory",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_metrics = sub.add_parser(
        "metrics", help="observed experiment run: instrument summary table"
    )
    p_metrics.add_argument("id", choices=list(REGISTRY))
    p_metrics.add_argument("--out", default="runs", help="artifact directory")
    p_metrics.add_argument(
        "--store", default=None,
        help="register the run into this run-registry directory",
    )
    p_metrics.set_defaults(func=_cmd_metrics)

    p_obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    p_selfcheck = obs_sub.add_parser(
        "selfcheck", help="end-to-end smoke test of the obs pipeline"
    )
    p_selfcheck.set_defaults(func=_cmd_obs_selfcheck)

    p_diff = obs_sub.add_parser(
        "diff",
        help="first-divergence diff of two runs (streams and/or manifests)",
    )
    p_diff.add_argument("left", help="run dir, .events.jsonl, or manifest")
    p_diff.add_argument("right", help="run dir, .events.jsonl, or manifest")
    p_diff.add_argument(
        "--id", default=None,
        help="run base name when an operand directory holds several runs",
    )
    p_diff.add_argument(
        "--context", type=int, default=3,
        help="shared context lines shown before the divergence",
    )
    p_diff.set_defaults(func=_cmd_obs_diff)

    p_flame = obs_sub.add_parser(
        "flame",
        help="export a run's span tree as a Chrome-trace or speedscope "
             "profile",
    )
    p_flame.add_argument("run", help="run dir, .events.jsonl, or manifest")
    p_flame.add_argument(
        "--id", default=None,
        help="run base name when the operand directory holds several runs",
    )
    p_flame.add_argument(
        "--format", choices=["chrome", "speedscope"], default="chrome",
        help="profile format (load in chrome://tracing or speedscope.app)",
    )
    p_flame.add_argument("--out", default=None, help="write the profile here")
    p_flame.set_defaults(func=_cmd_obs_flame)

    p_history = obs_sub.add_parser(
        "history", help="per-metric series + regression flags over a registry"
    )
    p_history.add_argument(
        "--store", required=True, help="run-registry directory"
    )
    p_history.add_argument(
        "--experiment", default=None,
        help="restrict to runs of this experiment id",
    )
    p_history.add_argument(
        "--metrics", default=None,
        help="comma-separated metric names to keep (default: all)",
    )
    p_history.add_argument(
        "--threshold", type=float, default=2.0,
        help="regression ratio gate (latest/first)",
    )
    p_history.add_argument(
        "--bench", action="append", default=None,
        help="bench_solver JSON artifact to fold in (repeatable)",
    )
    p_history.add_argument(
        "--noise-floor-ms", type=float, default=50.0, dest="noise_floor_ms",
        help="absolute slack for wall-clock series: deltas below this are "
             "scheduling noise, never a regression",
    )
    p_history.add_argument(
        "--format", choices=["table", "json"], default="table",
        help="table (signed delta + direction columns) or the canonical "
             "JSON document",
    )
    p_history.set_defaults(func=_cmd_obs_history)

    p_export = obs_sub.add_parser(
        "export",
        help="OpenMetrics text page over a run's metrics and/or persisted "
             "tsdb series",
    )
    p_export.add_argument(
        "run", nargs="?", default=None,
        help="run dir or manifest whose metric summary to export",
    )
    p_export.add_argument(
        "--id", default=None,
        help="run base name when the operand directory holds several runs",
    )
    p_export.add_argument(
        "--tsdb", default=None,
        help="tsdb store directory whose persisted series to export",
    )
    p_export.add_argument(
        "--experiment", default=None,
        help="tsdb run to export when the store holds several",
    )
    p_export.add_argument(
        "--format", choices=["openmetrics"], default="openmetrics",
        help="exposition format",
    )
    p_export.add_argument("--out", default=None, help="write the page here")
    p_export.set_defaults(func=_cmd_obs_export)

    p_alerts = obs_sub.add_parser(
        "alerts", help="deterministic alert rules over recorded telemetry"
    )
    alerts_sub = p_alerts.add_subparsers(dest="alerts_command", required=True)
    p_alist = alerts_sub.add_parser(
        "list", help="show a rule pack's predicates"
    )
    p_alist.add_argument(
        "--rules", default="default",
        help="rule pack JSON, or 'default' for the shipped pack",
    )
    p_alist.add_argument("--slo", default=None, help="SLO pack JSON")
    p_alist.set_defaults(func=_cmd_obs_alerts_list)
    p_aeval = alerts_sub.add_parser(
        "eval",
        help="evaluate rules over a recorded run (event stream + "
             "manifest); exits non-zero on any firing",
    )
    p_aeval.add_argument(
        "run", help="run dir, .events.jsonl (plain or segmented), or manifest"
    )
    p_aeval.add_argument(
        "--id", default=None,
        help="run base name when the operand directory holds several runs",
    )
    p_aeval.add_argument(
        "--rules", default="default",
        help="rule pack JSON, or 'default' for the shipped pack",
    )
    p_aeval.add_argument("--slo", default=None, help="SLO pack JSON")
    p_aeval.add_argument(
        "--window", type=float, default=64.0,
        help="tick-window width for the ingested series",
    )
    p_aeval.add_argument(
        "--tsdb", default=None,
        help="also persist the ingested series into this tsdb store",
    )
    p_aeval.add_argument(
        "--out", default=None,
        help="write the alert/incident events as a JSONL stream here",
    )
    p_aeval.add_argument(
        "--json", action="store_true",
        help="print the canonical outcome document instead of the digest",
    )
    p_aeval.set_defaults(func=_cmd_obs_alerts_eval)

    p_oreport = obs_sub.add_parser(
        "report", help="rendered regression report over a run registry"
    )
    p_oreport.add_argument(
        "--store", required=True, help="run-registry directory"
    )
    p_oreport.add_argument(
        "--format", choices=["markdown", "json"], default="markdown"
    )
    p_oreport.add_argument("--out", default=None, help="write the report here")
    p_oreport.add_argument(
        "--threshold", type=float, default=2.0,
        help="regression ratio gate (latest/first)",
    )
    p_oreport.add_argument(
        "--bench", action="append", default=None,
        help="bench_solver JSON artifact to fold in (repeatable)",
    )
    p_oreport.add_argument(
        "--fleet-chips", type=int, default=0, dest="fleet_chips",
        help="include a fleet-health section over this many sampled chips",
    )
    p_oreport.add_argument(
        "--trials", type=int, default=4,
        help="characterization trials for the fleet-health section",
    )
    p_oreport.set_defaults(func=_cmd_obs_report)

    p_list = sub.add_parser("list-workloads", help="show all modeled workloads")
    p_list.set_defaults(func=_cmd_list_workloads)

    p_lint = sub.add_parser(
        "lint",
        help="run the domain linter (RL001-RL008 and RL013; --project adds "
        "the interprocedural RL009-RL012) over the tree",
    )
    add_lint_arguments(p_lint)
    p_lint.set_defaults(func=run_lint)

    p_report = sub.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    p_report.add_argument("--out", default="REPORT.md")
    p_report.add_argument(
        "--experiments",
        help="comma-separated experiment ids (default: all)",
    )
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
