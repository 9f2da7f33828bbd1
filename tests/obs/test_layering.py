"""``repro.obs`` imports nothing from the layers it observes.

The simulation (``core``, ``fastpath``, ``atm``, ``experiments``) and the
bench harness (``analysis.bench``) sit above ``obs``: they emit into it,
and ``obs`` reads only what they wrote.  The first test walks the AST of
every ``obs`` module, function-level imports included; the second checks
what importing the read side actually loads.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]
OBS = SRC / "repro" / "obs"
FORBIDDEN = (
    "repro.core",
    "repro.fastpath",
    "repro.atm",
    "repro.experiments",
    "repro.analysis.bench",
)


def _forbidden(name: str) -> bool:
    return any(name == bad or name.startswith(bad + ".") for bad in FORBIDDEN)


def _imported_names(path: Path) -> list[tuple[int, str]]:
    """Every absolute module name ``path`` imports, at any nesting depth."""
    package = list(path.relative_to(SRC).parent.parts)
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.append((node.lineno, module))
            # `from .. import core` imports the submodule `repro.core`.
            names.extend(
                (node.lineno, f"{module}.{alias.name}") for alias in node.names
            )
    return names


def test_no_obs_module_imports_an_upper_layer():
    offenders = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in sorted(OBS.rglob("*.py"))
        for line, name in _imported_names(path)
        if _forbidden(name)
    ]
    assert offenders == []


def test_read_side_import_loads_no_simulation_driver():
    loaded = json.loads(
        subprocess.run(
            [
                sys.executable,
                "-c",
                "import json, sys, repro.obs.alerts, repro.obs.analyze; "
                "print(json.dumps(sorted(sys.modules)))",
            ],
            capture_output=True,
            check=True,
            cwd=SRC.parent,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            text=True,
        ).stdout
    )
    # `import repro` itself loads the `repro.core` package and the
    # simulators it re-exports; the fleet driver, the solve fast path,
    # the experiment registry and the bench harness must stay unloaded.
    pulled = [
        name
        for name in loaded
        if name.startswith(("repro.experiments", "repro.fastpath"))
        or name in ("repro.core.fleet", "repro.analysis.bench")
    ]
    assert pulled == []
