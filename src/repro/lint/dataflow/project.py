"""The :class:`ProjectModel`: whole-package symbol table and resolution.

Built once per ``--project`` run from every ``.py`` file reachable from
the given paths (plus optional *root-only* paths such as ``tests/`` and
``examples/``, which contribute call sites but are never themselves
checked; their non-test modules are RL012 roots).  Modules are
extracted through the sha256-keyed
:class:`~repro.lint.dataflow.cache.ModuleCache`, so warm runs skip
parsing entirely.

Resolution is deliberately conservative: a dotted reference either
resolves to a unique project symbol (function, class, module-level
constant) or is classified *external*/*unknown*; the analyses built on
top (unit flow, taint) only act on resolved symbols, so imprecision
shows up as silence, not as false findings.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from pathlib import Path, PurePosixPath

from ...errors import LintError
from ..engine import Finding, ProjectRule, discover_files
from .cache import ModuleCache, source_sha256
from .symbols import (
    Binding,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Param,
    dotted_name,
    extract_module,
)


class Resolution:
    """Outcome of resolving a dotted reference.

    ``kind`` is one of ``"function"``, ``"class"``, ``"module"``,
    ``"const"``, or ``"external"``; ``value`` is the matching info object
    (or the dotted spelling for externals); ``module`` is the defining
    :class:`ModuleInfo` for project symbols.
    """

    __slots__ = ("kind", "value", "module")

    def __init__(self, kind: str, value, module: ModuleInfo | None = None):
        self.kind = kind
        self.value = value
        self.module = module

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resolution({self.kind!r}, {self.value!r})"


class ProjectModel:
    """Symbol table, import graph, and resolution for one analysis run."""

    def __init__(
        self,
        paths: Sequence[str | Path],
        *,
        root_only_paths: Sequence[str | Path] = (),
        cache: ModuleCache | None = None,
    ):
        self.cache = cache if cache is not None else ModuleCache(None)
        #: Modules under the analyzed paths — rules report findings here.
        self.modules: list[ModuleInfo] = []
        #: Modules contributing uses only (tests, examples, benchmarks).
        self.root_only: list[ModuleInfo] = []
        self._by_name: dict[str, ModuleInfo] = {}
        self._name_collisions: set[str] = set()
        self.parse_failures: list[Finding] = []
        for file_path in discover_files(paths):
            info = self._load(file_path)
            if info is not None:
                self.modules.append(info)
        for file_path in discover_files(root_only_paths):
            info = self._load(file_path)
            if info is not None:
                self.root_only.append(info)

    # -- construction ------------------------------------------------------

    def _load(self, file_path: Path) -> ModuleInfo | None:
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as exc:
            raise LintError(f"cannot read {file_path}: {exc}") from exc
        sha = source_sha256(source)
        display = str(PurePosixPath(file_path.as_posix()))
        info = self.cache.get(sha, display)
        if info is None:
            try:
                info = extract_module(file_path, source, sha, display_path=display)
            except SyntaxError as exc:
                self.parse_failures.append(
                    Finding(
                        path=display,
                        line=exc.lineno or 1,
                        col=(exc.offset or 1) - 1,
                        rule_id="PARSE",
                        severity="error",
                        message=f"file does not parse: {exc.msg}",
                    )
                )
                return None
            self.cache.put(info)
        if info.name in self._by_name and self._by_name[info.name] is not info:
            self._name_collisions.add(info.name)
        else:
            self._by_name[info.name] = info
        return info

    # -- lookup ------------------------------------------------------------

    @property
    def all_modules(self) -> list[ModuleInfo]:
        """Checked + root-only modules, in load order."""
        return [*self.modules, *self.root_only]

    def module_named(self, name: str) -> ModuleInfo | None:
        """Module by exact dotted name (``None`` on miss or collision)."""
        if name in self._name_collisions:
            return None
        return self._by_name.get(name)

    def _symbol_in(self, module: ModuleInfo, name: str, _depth: int = 0) -> Resolution | None:
        """Resolve ``name`` inside ``module`` (defs, constants, re-exports)."""
        if name in module.functions:
            return Resolution("function", module.functions[name], module)
        if name in module.classes:
            return Resolution("class", module.classes[name], module)
        if name in module.bindings and _depth < 8:
            return self._follow(module.bindings[name], _depth + 1)
        if name in module.constants:
            return Resolution("const", name, module)
        # `from . import sibling` in the package __init__ exposes the
        # submodule as an attribute even without an explicit binding.
        submodule = self.module_named(f"{module.name}.{name}")
        if submodule is not None:
            return Resolution("module", submodule, submodule)
        return None

    def _follow(self, binding: Binding, _depth: int = 0) -> Resolution | None:
        if binding.kind == "module":
            module = self.module_named(binding.target)
            if module is not None:
                return Resolution("module", module, module)
            return Resolution("external", binding.target)
        module_name, _, symbol = binding.target.partition(":")
        module = self.module_named(module_name)
        if module is None:
            return Resolution("external", f"{module_name}.{symbol}")
        resolved = self._symbol_in(module, symbol, _depth)
        if resolved is None:
            # The name may itself be a submodule (`from repro import core`).
            submodule = self.module_named(f"{module_name}.{symbol}")
            if submodule is not None:
                return Resolution("module", submodule, submodule)
        return resolved

    def resolve_dotted(
        self,
        module: ModuleInfo,
        dotted: str,
        *,
        class_ctx: ClassInfo | None = None,
    ) -> Resolution | None:
        """Resolve a dotted source spelling as seen from ``module``.

        Handles local defs, import bindings, ``self``/``cls`` method
        references, and attribute paths through project modules.  Returns
        ``None`` when the head name is not statically known.
        """
        head, _, rest = dotted.partition(".")
        if head in ("self", "cls") and class_ctx is not None:
            if not rest:
                return Resolution("class", class_ctx)
            method = rest.partition(".")[0]
            if method in class_ctx.methods:
                return Resolution("function", class_ctx.methods[method], module)
            return None
        current = self._symbol_in(module, head)
        if current is None:
            return None
        while rest:
            part, _, rest = rest.partition(".")
            if current.kind == "module":
                current = self._symbol_in(current.value, part)
                if current is None:
                    return None
            elif current.kind == "external":
                current = Resolution("external", f"{current.value}.{part}")
            elif current.kind == "class":
                info: ClassInfo = current.value
                if part in info.methods:
                    current = Resolution(
                        "function", info.methods[part], current.module
                    )
                else:
                    return None
            else:
                return None
        return current

    def resolve_call_target(
        self, module: ModuleInfo, func, *, class_ctx: ClassInfo | None = None
    ) -> Resolution | None:
        """Resolve a call's ``func`` expression to its target, if static."""
        spelled = dotted_name(func)
        if spelled is None:
            return None
        return self.resolve_dotted(module, spelled, class_ctx=class_ctx)

    # -- class structure ---------------------------------------------------

    def base_classes(self, info: ClassInfo) -> list[ClassInfo]:
        """Project-resolved base classes of ``info`` (direct bases only)."""
        bases: list[ClassInfo] = []
        owner = self.module_of_class(info)
        if owner is None:
            return bases
        for base in info.bases:
            resolved = self.resolve_dotted(owner, base)
            if resolved is not None and resolved.kind == "class":
                bases.append(resolved.value)
        return bases

    def module_of_class(self, info: ClassInfo) -> ModuleInfo | None:
        return self.module_named(info.qualname.partition(":")[0])

    def mro(self, info: ClassInfo) -> list[ClassInfo]:
        """Linearized ancestry (single-inheritance walk, cycle-guarded)."""
        chain: list[ClassInfo] = []
        seen = {info.qualname}
        frontier = [info]
        while frontier:
            current = frontier.pop(0)
            chain.append(current)
            for base in self.base_classes(current):
                if base.qualname not in seen:
                    seen.add(base.qualname)
                    frontier.append(base)
        return chain

    def inherits_from(self, info: ClassInfo, base_name: str) -> bool:
        """True when ``info`` (transitively) subclasses a ``base_name`` class."""
        return any(
            ancestor.name == base_name for ancestor in self.mro(info)[1:]
        )

    def constructor_params(self, info: ClassInfo) -> list[Param] | None:
        """Parameters accepted by ``ClassName(...)``.

        Dataclasses synthesize ``__init__`` from fields in MRO order (base
        fields first); explicit ``__init__`` wins otherwise.  ``None``
        means the constructor shape is not statically known.
        """
        init = info.methods.get("__init__")
        if init is not None:
            return init.params[1:]  # drop self
        if not info.is_dataclass:
            return None
        ordered: list[Param] = []
        seen: set[str] = set()
        for ancestor in reversed(self.mro(info)):
            if not ancestor.is_dataclass:
                continue
            for field in ancestor.fields:
                if field.name not in seen:
                    seen.add(field.name)
                    ordered.append(field)
        return ordered


def analyze_project(
    paths: Sequence[str | Path],
    *,
    rules: Sequence[ProjectRule] | None = None,
    root_only_paths: Sequence[str | Path] = (),
    cache_dir: str | Path | None = None,
) -> list[Finding]:
    """Run project rules over ``paths`` and return sorted findings.

    Suppression comments (``# repro-lint: disable=RL0xx``) are honored at
    the finding's anchor line, exactly as in per-file mode; parse failures
    surface as ``PARSE`` findings rather than aborting the run.
    """
    if rules is None:
        from ..rules import PROJECT_RULES

        rules = PROJECT_RULES
    project = ProjectModel(
        paths,
        root_only_paths=root_only_paths,
        cache=ModuleCache(cache_dir),
    )
    by_path = {module.path: module for module in project.all_modules}
    findings: list[Finding] = list(project.parse_failures)
    for rule in rules:
        for finding in rule.check(project):
            module = by_path.get(finding.path)
            if module is not None and module.is_suppressed(
                finding.rule_id, finding.line
            ):
                continue
            findings.append(finding)
    return sorted(set(findings))


def iter_checked_functions(
    project: ProjectModel,
) -> Iterable[tuple[ModuleInfo, ClassInfo | None, FunctionInfo]]:
    """Every function/method in the checked (non-root-only) modules."""
    for module in project.modules:
        for function in module.functions.values():
            yield module, None, function
        for cls in module.classes.values():
            for method in cls.methods.values():
                yield module, cls, method


def iter_all_functions(
    project: ProjectModel,
) -> Iterable[tuple[ModuleInfo, ClassInfo | None, FunctionInfo]]:
    """Every function/method across checked and root-only modules."""
    for module in project.all_modules:
        for function in module.functions.values():
            yield module, None, function
        for cls in module.classes.values():
            for method in cls.methods.values():
                yield module, cls, method
