"""Argument handling for ``python -m repro.lint`` and ``repro lint``.

Two modes share one option surface:

* default (per-file) — the v1 single-walk rules RL001–RL008;
* ``--project`` — the v2 interprocedural rules RL009–RL012, which build
  a whole-program symbol table / call graph first (see
  :mod:`repro.lint.dataflow`).

Exit codes: 0 clean, 1 findings, 2 usage / tooling error.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from ..errors import LintError
from .baseline import Baseline
from .engine import discover_files, lint_paths
from .report import format_json, format_rule_table, format_sarif, format_text
from .rules import ALL_RULES, PROJECT_RULES, get_project_rules, get_rules

#: Default lint targets when none are given, filtered to those that exist.
DEFAULT_PATHS = ("src", "tests")

#: Default ``--project`` targets: analyze src; the root-only paths are
#: loaded but never checked.  Their non-test modules (examples and
#: benchmark drivers) are RL012 roots; test modules only anchor RL010
#: flows and keep no API alive, so RL012 reports what only tests reach.
PROJECT_DEFAULT_PATHS = ("src",)
PROJECT_DEFAULT_ROOT_ONLY = ("tests", "examples", "benchmarks")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to ``parser`` (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tests; "
        "with --project: src, with tests, examples and benchmarks "
        "as root-only paths)",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="run the interprocedural project rules (RL009-RL012) instead "
        "of the per-file rules",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        help="JSON file of grandfathered findings (see repro.lint.baseline)",
    )
    parser.add_argument(
        "--select",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (1 forces in-process linting; per-file "
        "mode only)",
    )
    parser.add_argument(
        "--root-only",
        action="append",
        default=None,
        metavar="PATH",
        help="(--project) paths whose modules contribute call sites but are "
        "never checked; their non-test modules are RL012 roots "
        "(default: tests examples benchmarks)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="parsed-module cache directory for --project runs "
        "(default: .repro-lint-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the parsed-module cache for --project runs",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    if args.list_rules:
        print(format_rule_table(ALL_RULES + PROJECT_RULES))
        return 0
    if args.project:
        return _run_project(args)
    paths = args.paths or [path for path in DEFAULT_PATHS if _exists(path)]
    if not paths:
        print("error: no lint targets (give paths explicitly)", file=sys.stderr)
        return 2
    rules = None
    if args.select:
        rules = get_rules(_split_select(args.select))
    files_checked = len(discover_files(paths))
    findings = lint_paths(paths, rules=rules, jobs=args.jobs)
    if args.baseline:
        findings = Baseline.load(args.baseline).filter(findings)
    print(_render(args, findings, files_checked, ALL_RULES))
    return 1 if findings else 0


def _run_project(args: argparse.Namespace) -> int:
    """The ``--project`` mode: whole-program rules over a module set."""
    from .dataflow.project import analyze_project

    paths = args.paths or [
        path for path in PROJECT_DEFAULT_PATHS if _exists(path)
    ]
    if not paths:
        print("error: no lint targets (give paths explicitly)", file=sys.stderr)
        return 2
    if args.root_only is not None:
        root_only = list(args.root_only)
    else:
        root_only = [
            path
            for path in PROJECT_DEFAULT_ROOT_ONLY
            if _exists(path) and path not in paths
        ]
    rules = (
        get_project_rules(_split_select(args.select))
        if args.select
        else None
    )
    from .dataflow.cache import DEFAULT_CACHE_DIR

    cache_dir = (
        None if args.no_cache else (args.cache_dir or DEFAULT_CACHE_DIR)
    )
    findings = analyze_project(
        paths,
        rules=rules,
        root_only_paths=root_only,
        cache_dir=cache_dir,
    )
    if args.baseline:
        findings = Baseline.load(args.baseline).filter(findings)
    files_checked = len(discover_files(paths))
    print(_render(args, findings, files_checked, PROJECT_RULES))
    return 1 if findings else 0


def _render(args, findings, files_checked: int, rules) -> str:
    if args.format == "json":
        return format_json(findings, files_checked=files_checked)
    if args.format == "sarif":
        return format_sarif(findings, rules=rules)
    return format_text(findings, files_checked=files_checked)


def _split_select(select: str) -> list[str]:
    return [part.strip() for part in select.split(",") if part.strip()]


def _exists(path: str) -> bool:
    from pathlib import Path

    return Path(path).exists()


def main(argv: Sequence[str] | None = None) -> int:
    """Standalone entry point for ``python -m repro.lint``."""
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST-based domain linter for the ATM reproduction",
    )
    add_lint_arguments(parser)
    args = parser.parse_args(argv)
    try:
        return run_lint(args)
    except LintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
