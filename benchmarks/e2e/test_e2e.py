"""Tests of the end-to-end benchmark harness, on tiny op counts.

    pytest benchmarks/e2e
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import compare  # noqa: E402
import harness  # noqa: E402
import spans  # noqa: E402
from harness import (  # noqa: E402
    E2E_METRICS,
    LAYER_METRICS,
    WORKLOADS,
    Sizes,
    Tally,
    build_reference,
    physical_fleet_seed,
    run_workload,
)

TINY = Sizes(
    experiments=("fig01", "table1", "fig14"),
    cold_chips=4,
    warm_chips=4,
    full_chips=4,
    warmup_chips=2,
    setup_repeats=1,
)

#: Fleet seed whose chip F7 (seed 6806) draws non-physical.
NON_PHYSICAL_SEED = 6799


@pytest.fixture(scope="module")
def work_root(tmp_path_factory):
    return tmp_path_factory.mktemp("e2e-work")


@pytest.fixture(scope="module")
def reference(work_root):
    return build_reference(sizes=TINY, work_root=work_root)


@pytest.fixture(scope="module")
def outcomes(work_root, reference):
    """One untraced and one traced run of every workload at seed 2019."""
    return {
        (name, trace): run_workload(
            name, seed=2019, seconds=0.0, trace=trace, sizes=TINY,
            reference=reference, work_root=work_root,
            spans_path=work_root / f"{name}.spans.json" if trace else None,
        )
        for name in WORKLOADS
        for trace in (False, True)
    }


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_emits_every_metric_with_its_unit(outcomes, name, trace):
    outcome = outcomes[(name, trace)]
    declared = LAYER_METRICS if trace else E2E_METRICS
    result = outcome.to_result()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m.name for m in declared]
    for metric in declared:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert math.isfinite(entry["value"])
    assert result["correct"], outcome.failures + outcome.problems
    assert result["failed"] == 0 and result["attempted"] >= 1
    json.dumps(result)


def test_end_to_end_metrics_are_never_zero(outcomes):
    for name in WORKLOADS:
        for value, _unit in outcomes[(name, False)].metrics.values():
            assert value > 0.0


def test_traced_digests_equal_untraced_and_reference(outcomes, reference):
    for name in WORKLOADS:
        plain = outcomes[(name, False)].plain
        traced = outcomes[(name, True)].traced
        assert plain.digests and traced.digests == plain.digests
        assert plain.digests == reference[name]


def test_zero_work_predictions_hold(outcomes):
    layer = {
        name: {m: v for m, (v, _) in outcomes[(name, True)].metrics.items()}
        for name in WORKLOADS
    }
    assert layer["fleet_warm"]["characterize.calls"] == 0
    assert layer["fleet_warm"]["population.rows"] == 0
    assert layer["fleet_warm"]["store.hit_rate"] == 1.0
    for name in ("suite", "fleet_cold"):
        assert layer[name]["store.calls"] == 0
    for name in ("suite", "fleet_cold", "fleet_warm"):
        assert layer[name]["obs.events"] == 0
    assert layer["fleet_full"]["obs.events"] > 0
    assert layer["fleet_cold"]["characterize.calls"] > 0
    assert layer["suite"]["experiments.table1_s"] > 0


def test_span_log_is_written(outcomes, work_root):
    document = json.loads((work_root / "fleet_full.spans.json").read_text())
    assert document["spans"]
    name, start, end, parent, op = document["spans"][0]
    assert end >= start and op >= 1
    assert "fleet.self" in document["self_s"]


def test_wrappers_are_removed_after_a_traced_run(outcomes):
    from repro.core import fleet
    from repro.fastpath import population

    assert spans.installed_taps() == []
    assert not hasattr(fleet.solve_chips_cached, "__wrapped__")
    assert fleet.solve_chips_cached is population.solve_chips_cached


def test_wrappers_are_removed_when_the_traced_window_raises():
    recorder = spans.SpanRecorder()
    with pytest.raises(RuntimeError):
        with spans.Taps(recorder):
            assert "repro.core.fleet.solve_chips_cached" in spans.installed_taps()
            raise RuntimeError("boom")
    assert spans.installed_taps() == []


def test_self_time_excludes_child_spans():
    recorder = spans.SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            sum(range(20000))
    outer, inner = recorder.self_time("outer"), recorder.self_time("inner")
    total = recorder.to_dict()["spans"][0]
    assert outer >= 0 and inner > 0
    assert math.isclose(outer + inner, total[2] - total[1], rel_tol=1e-9)


def test_host_kernel_time_is_left_out_of_timings(outcomes):
    speed = harness.HostSpeed()
    chunks: list[tuple[float, float]] = []
    clock = harness.ChunkClock(chunks, speed)
    clock.update(64)  # a kernel run is due at once, after this chunk is timed
    clock.update(64)  # the next chunk is timed from the end of that run
    assert len(speed.samples) == 1
    assert chunks[1][1] < speed.samples[0]
    assert chunks[0][0] < speed.times[0] < chunks[1][0]
    assert harness._net_s(speed, speed.sample) < speed.samples[-1] / 2
    cold = outcomes[("fleet_cold", False)]
    assert set(cold.raw) == {"setup_s", "pass_s_p50", "step_s_gmean"}
    assert cold.raw["pass_s_p50"] == cold.plain.pass_s[0]
    scale = cold.metrics["pass_s_p50"][0] / cold.raw["pass_s_p50"]
    assert 0.1 < scale < 10.0


def test_scaling_uses_the_nearest_kernel_runs():
    speed = harness.HostSpeed()
    speed.samples = [0.016, 0.016, 0.016, 0.032, 0.032, 0.032]
    speed.times = [0.0, 1.0, 2.0, 10.0, 11.0, 12.0]
    ref = harness.REFERENCE_KERNEL_S
    assert speed.scale([(1.0, 2.0), (11.0, 2.0)]) == pytest.approx(
        [2.0 * ref / 0.016, 2.0 * ref / 0.032]
    )


def test_tampered_reference_is_a_failure_not_a_crash(reference, work_root):
    tampered = json.loads(json.dumps(reference))
    tampered["suite"]["fig01"]["render"] = "0" * 64
    tampered["fleet_cold"]["fleet"]["report"] = "0" * 64
    suite = run_workload("suite", seed=2019, seconds=0.0, sizes=TINY,
                         reference=tampered, work_root=work_root)
    assert suite.attempted == 3 and suite.failed == 1 and not suite.correct
    assert suite.failures[0].startswith("fig01: render")
    cold = run_workload("fleet_cold", seed=2019, seconds=0.0, sizes=TINY,
                        reference=tampered, work_root=work_root)
    assert (cold.attempted, cold.failed, cold.correct) == (1, 1, False)


def test_non_physical_chip_is_one_failed_op(work_root):
    sizes = Sizes(cold_chips=8, warmup_chips=2, setup_repeats=1)
    assert physical_fleet_seed(NON_PHYSICAL_SEED, 8) != NON_PHYSICAL_SEED
    workload = harness.FleetColdWorkload(
        seed=NON_PHYSICAL_SEED, sizes=sizes, reference=None, work_root=work_root
    )
    workload.fleet_seed = NON_PHYSICAL_SEED  # bypass the input rejection
    tally = Tally()
    workload.run_pass(tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "non-physical" in tally.failures[0]


@pytest.mark.parametrize("name", ["fleet_cold", "fleet_full"])
def test_fleet_op_failing_before_its_first_chunk_is_reported(
        work_root, monkeypatch, name):
    # Skip the input rejection, so the timed fleet draws a non-physical chip
    # in its first chunk; the set-up warm-up fleet still draws physical.
    monkeypatch.setattr(harness, "physical_fleet_seed", lambda seed, _n: seed)
    sizes = Sizes(cold_chips=8, full_chips=8, warmup_chips=2, setup_repeats=1)
    outcome = run_workload(name, seed=NON_PHYSICAL_SEED, seconds=0.0,
                           sizes=sizes, reference=None, work_root=work_root)
    assert (outcome.attempted, outcome.failed, outcome.correct) == (1, 1, False)
    assert "non-physical" in outcome.failures[0]
    assert outcome.plain.counts["fleet.chunks"] == 0
    assert all(value > 0.0 for value, _unit in outcome.metrics.values())


def _record(workload, seed, values):
    return {
        "workload": workload, "seed": seed, "trace": 0,
        "result": {
            "correct": True, "attempted": 1, "failed": 0,
            "metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()},
        },
    }


def test_compare_passes_equal_sides_and_flags_regressions():
    metrics = [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "pass_s_p50", "unit": "s", "better": "lower", "bound": 0.1},
    ]
    base = [_record("suite", s, {"setup_s": 1.0 + s / 1000, "pass_s_p50": 2.0 + s / 1000})
            for s in range(10)]
    ok, _ = compare.compare(base, base, metrics)
    assert ok
    slower = [_record("suite", s, {"setup_s": 1.0, "pass_s_p50": 2.5}) for s in range(10)]
    ok, lines = compare.compare(base, slower, metrics)
    assert not ok and any("worse than bound" in line for line in lines)
    noisy = [_record("suite", s, {"setup_s": 1.0 + s, "pass_s_p50": 2.0})
             for s in range(10)]
    ok, lines = compare.compare(noisy, noisy, metrics)
    assert ok  # set-up spread is not gated
    noisy = [_record("suite", s, {"setup_s": 1.0, "pass_s_p50": 2.0 + s})
             for s in range(10)]
    ok, lines = compare.compare(noisy, noisy, metrics)
    assert not ok and any("spread over bound" in line for line in lines)


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in E2E_METRICS
    ]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in LAYER_METRICS
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


def test_run_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(HERE, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
