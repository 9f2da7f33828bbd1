"""Run the repro end-to-end benchmark.

One workload, measured (``--trace 0``: end-to-end metrics) or traced
(``--trace 1``: per-layer metrics)::

    python3 benchmarks/e2e/run.py --workload suite --seed 2019 --seconds 12 --trace 0

All four workloads serially, one process each, over several seeds, with
one result file per run for ``compare.py``::

    python3 benchmarks/e2e/run.py --workload all --seeds 1-10 \\
        --out-dir .bench_work/results/A

Regenerate the committed output digests (seed 2019)::

    python3 benchmarks/e2e/run.py --write-reference

The last line of standard output of a single-workload run is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from ``src/`` next to this
directory; without it the run exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("suite", "fleet_cold", "fleet_warm", "fleet_full")
DEFAULT_SECONDS = 12


def _import_program() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no program sources at {SRC}/repro")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"run.py: imported repro from {repro.__file__}, not {SRC}")


def _parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _run_one(args: argparse.Namespace) -> int:
    from harness import SetupError, load_reference, run_workload

    spans_path = (
        WORK / "spans" / f"{args.workload}-s{args.seed}.json" if args.trace else None
    )
    try:
        outcome = run_workload(
            args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            reference=load_reference(),
            work_root=WORK,
            spans_path=spans_path,
        )
    except SetupError as exc:
        raise SystemExit(f"run.py: set-up failed: {exc}") from exc
    for message in outcome.failures:
        print(f"FAILED {message}")
    for message in outcome.problems:
        print(f"CHECK {message}")
    print(
        f"{outcome.workload} seed {outcome.seed}: {outcome.plain.passes} "
        f"pass(es), {outcome.attempted} ops, {outcome.failed} failed"
    )
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for name, value in outcome.raw.items():
        print(f"  {name + ' (this host)':<34} {value:>14.6g} s")
    result = outcome.to_result()
    if args.out is not None:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "result": result,
            "raw": outcome.raw,
            "failures": outcome.failures,
            "problems": outcome.problems,
        }
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def _run_many(args: argparse.Namespace) -> int:
    """Each (seed, workload) in its own process, one after another."""
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    seeds = _parse_seeds(args.seeds) if args.seeds else [args.seed]
    out_dir = Path(args.out_dir) if args.out_dir else None
    bad = 0
    for seed in seeds:
        for workload in workloads:
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ]
            if out_dir is not None:
                command += [
                    "--out", str(out_dir / f"{workload}-s{seed}-t{args.trace}.json")
                ]
            done = subprocess.run(command, capture_output=True, text=True)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                bad += 1
    print(f"{len(seeds) * len(workloads)} run(s), {bad} without a correct result")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=2019)
    parser.add_argument("--seeds", default=None,
                        help="run every seed of e.g. 1-10 or 3,5,8 (own processes)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--out", default=None,
                        help="also write the result record to this JSON file")
    parser.add_argument("--out-dir", default=None,
                        help="with --workload all or --seeds: one record per run")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate reference.json at seed 2019 and exit")
    args = parser.parse_args(argv)
    _import_program()
    if args.write_reference:
        from harness import REFERENCE_PATH, build_reference

        reference = build_reference(work_root=WORK)
        REFERENCE_PATH.write_text(
            json.dumps(reference, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {REFERENCE_PATH}")
        return 0
    if args.workload == "all" or args.seeds:
        return _run_many(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
