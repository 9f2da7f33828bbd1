"""Compare two sets of end-to-end benchmark results.

    python3 benchmarks/e2e/compare.py RESULTS_A RESULTS_B

Each side is a directory of result records written by ``run.py --out``
(or ``run.py --workload all --seeds ... --out-dir``).  For every
(workload, end-to-end metric) pair found on both sides it prints each
side's median and quartiles (``statistics.quantiles(values, n=4)``), the
relative change of B's median from A's, and a verdict against the
metric's bound in ``BENCHMARK.json``:

* the change must not be worse than the bound;
* each side's quartile spread, as a share of its median, must stay
  within the bound (``setup_s`` is exempt: set-up is measured, not
  gated on spread).

Runs that failed ops or checks are listed as well.  Exits 1 if any
verdict fails, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Metric whose spread is not gated (see the module docstring).
SPREAD_EXEMPT = "setup_s"


def load_records(directory: str | Path) -> list[dict]:
    """Untraced result records of one side."""
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace", 0) == 0:
            records.append(record)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def _series(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    series: dict[tuple[str, str], list[float]] = defaultdict(list)
    for record in records:
        for name, metric in record["result"]["metrics"].items():
            series[(record["workload"], name)].append(float(metric["value"]))
    return series


def compare(a: list[dict], b: list[dict], metrics: list[dict]) -> tuple[bool, list[str]]:
    """Verdict and report lines for two sides' records."""
    lines = [
        f"{'workload':<11} {'metric':<12} {'A q1/med/q3':>30} "
        f"{'B q1/med/q3':>30} {'delta':>8} {'spreadA':>8} {'spreadB':>8} "
        f"{'bound':>6}  verdict"
    ]
    ok = True
    side_a, side_b = _series(a), _series(b)
    workloads = sorted({w for w, _ in side_a} & {w for w, _ in side_b})
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            values_a = side_a.get((workload, name))
            values_b = side_b.get((workload, name))
            if not values_a or not values_b:
                ok = False
                lines.append(f"{workload:<11} {name:<12} missing on one side  FAIL")
                continue
            qa, qb = quartiles(values_a), quartiles(values_b)
            delta = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            worse = delta if metric["better"] == "lower" else -delta
            spread_a, spread_b = spread(values_a), spread(values_b)
            reasons = []
            if worse > bound:
                reasons.append("worse than bound")
            if name != SPREAD_EXEMPT and max(spread_a, spread_b) > bound:
                reasons.append("spread over bound")
            ok = ok and not reasons
            lines.append(
                f"{workload:<11} {name:<12} "
                f"{'/'.join(f'{v:.4g}' for v in qa):>30} "
                f"{'/'.join(f'{v:.4g}' for v in qb):>30} "
                f"{delta:>+8.2%} {spread_a:>8.2%} {spread_b:>8.2%} {bound:>6.0%}  "
                + ("FAIL: " + ", ".join(reasons) if reasons else "ok")
            )
    for label, records in (("A", a), ("B", b)):
        for record in records:
            result = record["result"]
            if not result["correct"] or result["failed"]:
                ok = False
                lines.append(
                    f"side {label}: {record['workload']} seed {record['seed']} "
                    f"incorrect ({result['failed']}/{result['attempted']} ops failed)"
                )
    return ok, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="directory of baseline result records")
    parser.add_argument("b", help="directory of candidate result records")
    parser.add_argument("--benchmark", default=str(BENCHMARK_PATH),
                        help="BENCHMARK.json holding the metric bounds")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    a, b = load_records(args.a), load_records(args.b)
    if not a or not b:
        print("compare.py: each side needs at least one untraced result record")
        return 1
    ok, lines = compare(a, b, spec["end_to_end"])
    print("\n".join(lines))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
