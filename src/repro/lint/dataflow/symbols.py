"""Per-module symbol extraction for the project analyzer.

One :class:`ModuleInfo` per source file, carrying everything the project
rules need: the parsed tree, top-level functions and classes (with
dataclass fields and methods), import bindings, module-level constants,
and the suppression map.  The object graph is picklable, so
:mod:`repro.lint.dataflow.cache` can persist it keyed by the file's
sha256.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

from ..engine import parse_suppressions

#: Package sub-directories whose code an unseeded RNG must never reach
#: (the RL010 sink zones) — the deterministic physics and its harness.
PROTECTED_ZONES = frozenset({"atm", "core", "experiments", "fastpath"})


@dataclass(frozen=True)
class Param:
    """One parameter of a function or dataclass constructor."""

    name: str
    has_default: bool
    lineno: int
    col: int


@dataclass
class FunctionInfo:
    """A function or method definition."""

    name: str
    qualname: str  # "module:Class.method" or "module:function"
    lineno: int
    col: int
    params: list[Param]
    is_public: bool
    decorators: tuple[str, ...]
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def is_method(self) -> bool:
        return "." in self.qualname.partition(":")[2]


@dataclass
class ClassInfo:
    """A class definition with its dataclass fields and methods."""

    name: str
    qualname: str
    lineno: int
    col: int
    bases: tuple[str, ...]  # dotted source spellings of base expressions
    fields: list[Param]  # AnnAssign fields, in declaration order
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    is_dataclass: bool = False
    is_public: bool = True
    node: ast.ClassDef | None = None


@dataclass(frozen=True)
class Binding:
    """What a module-level name is bound to by an import.

    ``kind`` is ``"module"`` (``import repro.units as units``) or
    ``"symbol"`` (``from repro.units import require_positive``); ``target`` is the
    dotted module name, with the symbol name appended after ``":"`` for
    symbol bindings.  Unresolvable (external) imports keep their dotted
    spelling so callers can still classify ``numpy.random.default_rng``.
    """

    kind: str
    target: str


@dataclass
class ModuleInfo:
    """Everything the project rules need to know about one source file."""

    path: str  # display path (posix)
    name: str  # dotted module name, e.g. "repro.core.manager"
    sha256: str
    tree: ast.Module
    in_repro_src: bool
    is_test: bool
    suppressions: dict[int, frozenset[str]]
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    bindings: dict[str, Binding] = field(default_factory=dict)
    constants: tuple[str, ...] = ()  # module-level assigned names

    @property
    def zone(self) -> str | None:
        """The protected zone this module lives in, if any."""
        for part in PurePosixPath(self.path).parts:
            if part in PROTECTED_ZONES:
                return part
        return None

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        """True when ``line`` carries a disable comment covering ``rule_id``."""
        disabled = self.suppressions.get(line)
        if not disabled:
            return False
        return "all" in disabled or rule_id in disabled


def dotted_name(node: ast.expr) -> str | None:
    """Source spelling of a ``Name``/``Attribute`` chain, or ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_for(path: Path) -> str:
    """Dotted module name derived from package markers on disk.

    Walks up from the file while ``__init__.py`` markers are present, so
    ``src/repro/core/manager.py`` names ``repro.core.manager`` no matter
    which root the analyzer was pointed at.  Files outside any package
    (fixture corpora) get their bare stem.
    """
    parts = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem


def _extract_params(args: ast.arguments) -> list[Param]:
    params: list[Param] = []
    positional = [*args.posonlyargs, *args.args]
    first_default = len(positional) - len(args.defaults)
    for index, arg in enumerate(positional):
        params.append(
            Param(arg.arg, index >= first_default, arg.lineno, arg.col_offset)
        )
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        params.append(
            Param(arg.arg, default is not None, arg.lineno, arg.col_offset)
        )
    return params


def _extract_function(
    node: ast.FunctionDef | ast.AsyncFunctionDef, qualname: str
) -> FunctionInfo:
    decorators = tuple(
        name for name in (dotted_name(dec.func if isinstance(dec, ast.Call) else dec)
                          for dec in node.decorator_list)
        if name is not None
    )
    return FunctionInfo(
        name=node.name,
        qualname=qualname,
        lineno=node.lineno,
        col=node.col_offset,
        params=_extract_params(node.args),
        is_public=not node.name.startswith("_"),
        decorators=decorators,
        node=node,
    )


def _extract_class(node: ast.ClassDef, module_name: str) -> ClassInfo:
    qualname = f"{module_name}:{node.name}"
    bases = tuple(
        name for name in (dotted_name(base) for base in node.bases) if name
    )
    decorators = {
        name
        for name in (
            dotted_name(dec.func if isinstance(dec, ast.Call) else dec)
            for dec in node.decorator_list
        )
        if name
    }
    is_dataclass = any(
        name == "dataclass" or name.endswith(".dataclass") for name in decorators
    )
    info = ClassInfo(
        name=node.name,
        qualname=qualname,
        lineno=node.lineno,
        col=node.col_offset,
        bases=bases,
        fields=[],
        is_dataclass=is_dataclass,
        is_public=not node.name.startswith("_"),
        node=node,
    )
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            if not isinstance(stmt.annotation, ast.Constant) or stmt.value is None:
                info.fields.append(
                    Param(
                        stmt.target.id,
                        stmt.value is not None,
                        stmt.lineno,
                        stmt.col_offset,
                    )
                )
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.methods[stmt.name] = _extract_function(
                stmt, f"{qualname}.{stmt.name}"
            )
    return info


def _extract_bindings(
    module: ast.Module, module_name: str, *, is_package: bool
) -> dict[str, Binding]:
    bindings: dict[str, Binding] = {}
    # Relative imports resolve against the *package*: the module name
    # itself for an __init__.py, its parent otherwise.
    package_parts = module_name.split(".")
    if not is_package:
        package_parts = package_parts[:-1]
    for stmt in ast.walk(module):
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound = alias.asname or alias.name.partition(".")[0]
                # `import a.b.c` binds `a`; `import a.b.c as x` binds the
                # full dotted target to `x`.
                target = alias.name if alias.asname else alias.name.partition(".")[0]
                bindings[bound] = Binding("module", target)
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.level:
                # `level=1` is the package itself, each extra dot one more
                # parent up.
                base_parts = package_parts[
                    : len(package_parts) - (stmt.level - 1)
                ]
                base = ".".join(base_parts)
                if stmt.module:
                    base = f"{base}.{stmt.module}" if base else stmt.module
            else:
                base = stmt.module or ""
            for alias in stmt.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                if base:
                    bindings[bound] = Binding("symbol", f"{base}:{alias.name}")
                else:
                    bindings[bound] = Binding("module", alias.name)
    return bindings


def extract_module(
    path: str | Path,
    source: str,
    sha256: str,
    *,
    display_path: str | None = None,
) -> ModuleInfo:
    """Parse + extract one module; raises ``SyntaxError`` on broken files."""
    file_path = Path(path)
    display = display_path or str(PurePosixPath(file_path.as_posix()))
    parts = PurePosixPath(display).parts
    name = module_name_for(file_path)
    tree = ast.parse(source, filename=display)
    info = ModuleInfo(
        path=display,
        name=name,
        sha256=sha256,
        tree=tree,
        in_repro_src=any(
            parts[i] == "src" and parts[i + 1] == "repro"
            for i in range(len(parts) - 1)
        ),
        is_test="tests" in parts or parts[-1].startswith("test_"),
        suppressions=parse_suppressions(source),
    )
    constants: list[str] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[stmt.name] = _extract_function(
                stmt, f"{name}:{stmt.name}"
            )
        elif isinstance(stmt, ast.ClassDef):
            info.classes[stmt.name] = _extract_class(stmt, name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    constants.append(target.id)
    info.bindings = _extract_bindings(
        tree, name, is_package=file_path.stem == "__init__"
    )
    info.constants = tuple(constants)
    return info
