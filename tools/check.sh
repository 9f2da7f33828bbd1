#!/usr/bin/env bash
# Full local gate: style lint (optional), domain lint, tier-1 tests.
# Usage: tools/check.sh    (from the repo root)
set -u

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

failures=0

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff check =="
    ruff check src tests || failures=$((failures + 1))
else
    echo "== ruff check == (skipped: ruff not installed)"
fi

echo "== repro.lint (RL001-RL008, RL013) =="
python -m repro.lint src tests || failures=$((failures + 1))

echo "== repro.lint --project (RL009-RL011; RL012: no src API that only tests reach) =="
python -m repro.lint --project src || failures=$((failures + 1))

echo "== RL012 marks are declared test oracles =="
# An RL012 suppression makes a symbol a reachability root, so the mark is
# reserved for test oracles and must name what it serves:
# `# repro-lint: disable=RL012 -- oracle: <test>` on the def line.
if python - <<'PYEOF'
import re
import tokenize
from pathlib import Path

from repro.lint.engine import parse_suppressions

reason = re.compile(r"--\s*oracle:\s*\S")
marks, unexplained = 0, []
for path in sorted(Path("src").rglob("*.py")):
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type != tokenize.COMMENT:
                continue
            if "RL012" not in parse_suppressions(token.string).get(1, ()):
                continue
            marks += 1
            if not reason.search(token.string):
                unexplained.append(f"{path}:{token.start[0]}")
if unexplained:
    print("RL012 marks without an `-- oracle: <test>` reason:")
    print("\n".join(f"  {where}" for where in unexplained))
    raise SystemExit(1)
print(f"RL012 oracle marks ok: {marks}")
PYEOF
then
    :
else
    failures=$((failures + 1))
fi

if command -v mypy >/dev/null 2>&1; then
    # Advisory only: surfaces new type errors without gating the build
    # until the annotation coverage is broad enough to make it blocking.
    echo "== mypy (non-blocking) =="
    mypy src/repro || echo "mypy reported issues (non-blocking)"
else
    echo "== mypy == (skipped: mypy not installed)"
fi

echo "== repro bench (smoke + perf gate + obs-overhead gate) =="
bench_out="$(mktemp)"
# Diffs a small fresh run against the committed artifact; the absolute
# noise floor in compare_to_baseline keeps tiny smoke runs from tripping
# on machine jitter, so this only fails on gross regressions.
if python -m repro bench --experiments fig01 --fleet-chips 32 \
        --obs-chips 24 --store-chips 24 --export-chips 24 \
        --compare BENCH_solver.json --out "$bench_out" >/dev/null; then
    echo "bench smoke ok"
    # Observability must stay within its 10% wall-clock budget on the
    # fleet-characterization path (metrics only, behind a NullSink).  Same
    # two-condition shape as the perf gate: the ratio threshold plus the
    # MIN_REGRESSION_S absolute floor, so sub-50ms deltas never flap.
    if python - "$bench_out" <<'PYEOF'
import json
import sys

from repro.obs.stream.gates import exceeds_ratio_gate

entry = json.load(open(sys.argv[1]))["obs_overhead"]
enabled, disabled = entry["enabled_wall_s"], entry["disabled_wall_s"]
if exceeds_ratio_gate(enabled, disabled, threshold=1.10):
    print(
        f"obs overhead gate FAILED: dark {disabled}s vs observed "
        f"{enabled}s (+{100.0 * entry['overhead_ratio']:.1f}%, budget 10%)"
    )
    raise SystemExit(1)
print(
    f"obs overhead gate ok: +{100.0 * entry['overhead_ratio']:.1f}% "
    "(budget 10%)"
)
PYEOF
    then
        :
    else
        failures=$((failures + 1))
    fi
    # The alerting path (tsdb capture + rule evaluation during a fleet
    # characterization) has its own, tighter 5% budget.
    if python - "$bench_out" <<'PYEOF'
import json
import sys

from repro.obs.stream.gates import exceeds_ratio_gate

entry = json.load(open(sys.argv[1]))["obs_export"]
alerted, plain = entry["alerting_wall_s"], entry["plain_wall_s"]
if exceeds_ratio_gate(alerted, plain, threshold=1.05):
    print(
        f"alerting overhead gate FAILED: plain {plain}s vs alerted "
        f"{alerted}s (+{100.0 * entry['overhead_ratio']:.1f}%, budget 5%)"
    )
    raise SystemExit(1)
print(
    f"alerting overhead gate ok: +{100.0 * entry['overhead_ratio']:.1f}% "
    "(budget 5%)"
)
PYEOF
    then
        :
    else
        failures=$((failures + 1))
    fi
else
    failures=$((failures + 1))
fi
rm -f "$bench_out"

echo "== solve store cold-vs-warm smoke =="
# Four fleet characterizations into the same store, in separate
# processes: a cold fill, a serial warm run, a pooled warm run
# (--chunk 3 --jobs 2, whose workers serve characterization and state
# hits from the shared read-only mmap) and, after a prune, one more
# serial warm run.  Each warm run must serve everything from disk (zero
# misses) and print a byte-identical report modulo the store-traffic
# line.
store_tmp="$(mktemp -d)"
if python -m repro fleet characterize --chips 8 --trials 2 --cores 4 \
        --solve-store "$store_tmp/store" >"$store_tmp/cold.txt" \
        && python -m repro fleet characterize --chips 8 --trials 2 --cores 4 \
        --solve-store "$store_tmp/store" >"$store_tmp/warm.txt" \
        && python -m repro fleet characterize --chips 8 --trials 2 --cores 4 \
        --chunk 3 --jobs 2 \
        --solve-store "$store_tmp/store" >"$store_tmp/pool.txt" \
        && python -m repro store verify "$store_tmp/store" >/dev/null \
        && python -m repro store prune "$store_tmp/store" >/dev/null \
        && python -m repro fleet characterize --chips 8 --trials 2 --cores 4 \
        --solve-store "$store_tmp/store" >"$store_tmp/pruned.txt"; then
    grep -v '^solve store' "$store_tmp/cold.txt" >"$store_tmp/cold.body"
    warm_ok=1
    for run in warm pool pruned; do
        grep -v '^solve store' "$store_tmp/$run.txt" >"$store_tmp/$run.body"
        traffic="$(grep '^solve store' "$store_tmp/$run.txt")"
        if ! cmp -s "$store_tmp/cold.body" "$store_tmp/$run.body" \
                || ! grep -q ' 0 misses' <<<"$traffic" \
                || grep -q '^solve store [^:]*: 0 hits' <<<"$traffic"; then
            echo "store smoke FAILED: $run run diverged or missed the store"
            diff "$store_tmp/cold.body" "$store_tmp/$run.body" || true
            echo "$traffic"
            warm_ok=0
        fi
    done
    if [ "$warm_ok" -eq 1 ]; then
        echo "store cold-vs-warm smoke ok"
    else
        failures=$((failures + 1))
    fi
else
    failures=$((failures + 1))
fi
rm -rf "$store_tmp"

echo "== repro obs selfcheck =="
python -m repro obs selfcheck >/dev/null || failures=$((failures + 1))

echo "== alerts self-clean + openmetrics round-trip =="
# The shipped default rule pack must not fire on a healthy seeded fleet
# (exit 0 = zero alert windows), and the OpenMetrics page exported from
# the persisted tsdb must parse back losslessly.
alerts_tmp="$(mktemp -d)"
if python -m repro fleet characterize --chips 8 --trials 2 --cores 4 \
        --alerts default --tsdb "$alerts_tmp/tsdb" >/dev/null \
        && python -m repro obs export --tsdb "$alerts_tmp/tsdb" \
            --out "$alerts_tmp/page.txt" \
        && python - "$alerts_tmp/page.txt" <<'PYEOF'
import sys

from repro.obs.tsdb import parse_openmetrics

page = open(sys.argv[1], encoding="utf-8").read()
parsed = parse_openmetrics(page)
assert parsed["types"], "export produced no metric families"
assert parsed["samples"], "export produced no samples"
print(
    f"openmetrics round-trip ok: {len(parsed['types'])} families, "
    f"{len(parsed['samples'])} samples"
)
PYEOF
then
    echo "alerts self-clean smoke ok"
else
    echo "alerts smoke FAILED: default pack fired or export did not parse"
    failures=$((failures + 1))
fi
rm -rf "$alerts_tmp"

echo "== repro obs diff (same-seed self-comparison) =="
# Two observed runs at the same seed must diff clean: first-divergence
# diffing is itself the regression oracle for the obs pipeline.
obs_tmp="$(mktemp -d)"
if python -m repro trace fig01 --out "$obs_tmp/a" --tail 0 >/dev/null \
        && python -m repro trace fig01 --out "$obs_tmp/b" --tail 0 >/dev/null \
        && python -m repro obs diff "$obs_tmp/a" "$obs_tmp/b" >/dev/null; then
    echo "obs diff self-comparison ok"
else
    failures=$((failures + 1))
fi
rm -rf "$obs_tmp"

echo "== repro obs diff (single-file vs segmented fleet stream) =="
# Both fleet JSONL sinks, end to end: a rotated stream must be the same
# run as the single file (same manifest, same events).
fleet_obs_tmp="$(mktemp -d)"
if python -m repro fleet characterize --chips 8 --trials 2 --cores 4 \
        --out "$fleet_obs_tmp/a" >/dev/null \
        && python -m repro fleet characterize --chips 8 --trials 2 --cores 4 \
        --segment-events 64 --out "$fleet_obs_tmp/b" >/dev/null \
        && python -m repro obs diff "$fleet_obs_tmp/a" "$fleet_obs_tmp/b" \
        >/dev/null; then
    echo "fleet sink diff ok"
else
    failures=$((failures + 1))
fi
rm -rf "$fleet_obs_tmp"

echo "== serial vs --jobs 2 fleet summaries above the memo bound =="
# 2100 chips put 4200 rows through the 4096-state solve memo, so the
# serial run evicts while pool workers, which reset the memo per chunk,
# never do.  Memo traffic is execution-scoped: both manifests, written
# under the default registry, must carry equal metric summaries (gauges
# included) and result metrics.  `repro obs diff` cannot be this check,
# because a pooled run captures no events.
memo_tmp="$(mktemp -d)"
if python -m repro fleet characterize --chips 2100 --trials 1 --cores 2 \
        --out "$memo_tmp/A" >/dev/null \
        && python -m repro fleet characterize --chips 2100 --trials 1 \
        --cores 2 --jobs 2 --out "$memo_tmp/B" >/dev/null \
        && python - "$memo_tmp/A/fleet.manifest.json" \
            "$memo_tmp/B/fleet.manifest.json" <<'PYEOF'
import json
import sys

serial, pooled = (json.load(open(path)) for path in sys.argv[1:3])
for key in ("metrics_summary", "result_metrics"):
    differ = sorted(
        name
        for name in set(serial[key]) | set(pooled[key])
        if serial[key].get(name) != pooled[key].get(name)
    )
    if differ:
        raise SystemExit(f"serial vs --jobs 2 {key} differ: {', '.join(differ)}")
PYEOF
then
    echo "serial vs pooled fleet summaries ok"
else
    echo "serial vs pooled fleet summaries FAILED"
    failures=$((failures + 1))
fi
rm -rf "$memo_tmp"

echo "== repro obs flame (smoke) =="
# table1 is the cheapest experiment that emits SpanEvents; both export
# formats must produce valid JSON with at least one span.
flame_tmp="$(mktemp -d)"
if python -m repro trace table1 --out "$flame_tmp/run" --tail 0 >/dev/null \
        && python -m repro obs flame "$flame_tmp/run" \
            --format chrome --out "$flame_tmp/chrome.json" \
        && python -m repro obs flame "$flame_tmp/run" \
            --format speedscope --out "$flame_tmp/speedscope.json" \
        && python - "$flame_tmp" <<'PYEOF'
import json
import sys

base = sys.argv[1]
chrome = json.load(open(f"{base}/chrome.json"))
speedscope = json.load(open(f"{base}/speedscope.json"))
assert chrome["traceEvents"], "chrome export has no spans"
assert speedscope["profiles"][0]["events"], "speedscope export has no spans"
PYEOF
then
    echo "obs flame smoke ok"
else
    failures=$((failures + 1))
fi
rm -rf "$flame_tmp"

echo "== examples (each script as its own process, default arguments) =="
# Tier-1 runs them in-process (tests/integration/test_examples.py); this
# runs each one as a user would and fails on a nonzero exit.
examples_ok=1
for example in examples/*.py; do
    if ! python "$example" >/dev/null; then
        echo "example FAILED: $example"
        examples_ok=0
    fi
done
if [ "$examples_ok" -eq 1 ]; then
    echo "examples ok"
else
    failures=$((failures + 1))
fi

echo "== tier-1 pytest =="
python -m pytest -x -q || failures=$((failures + 1))

echo "== solver benches (scalar reference, one-chip and fleet entries) =="
# Runs each bench body once, untimed: the only check outside tests/ that
# drives the scalar reference, solve_many and solve_population.
python -m pytest -q --benchmark-disable benchmarks/bench_fastpath_solver.py \
    benchmarks/bench_fleet_population.py || failures=$((failures + 1))

echo "== e2e benchmark harness tests =="
# Tier-1 collects only tests/; the benchmark taps repro entry points by
# name (benchmarks/e2e/spans.py), so renaming one must fail here.
python -m pytest -q benchmarks/e2e || failures=$((failures + 1))

echo "== e2e digests (the suite and full-size seed-2019 fleets) =="
# A zero-second run still sets up and runs one full pass, and its last
# line says whether every digest matched benchmarks/e2e/reference.json:
# the suite's rendered results, and the fleet reports.  fleet_full also
# checks the event, tsdb and alert digests of an observed run that
# writes a store.
for workload in suite fleet_warm fleet_cold fleet_full; do
    if python3 benchmarks/e2e/run.py --workload "$workload" --seconds 0 \
            | tail -n 1 | grep -q '^{"correct": true,'; then
        echo "$workload digests ok"
    else
        echo "$workload digests FAILED"
        failures=$((failures + 1))
    fi
done

if [ "$failures" -ne 0 ]; then
    echo "FAILED: $failures check(s) failed"
    exit 1
fi
echo "all checks passed"
