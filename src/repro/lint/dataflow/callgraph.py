"""Symbol reference graph and reachability (the RL012 engine).

Nodes are top-level functions and classes (methods fold into their
class).  Edges are static references: any ``Name`` or dotted
``Attribute`` inside a node's body that resolves to another project
symbol.  Roots are what runs without a test driving it:

* module top-level code (imports run it), such as the experiments
  ``REGISTRY`` literal;
* every node in an *entry* module — ``cli``, ``__main__``, ``setup``,
  and the non-test modules of the root-only paths (``examples/`` and
  ``benchmarks/`` by default);
* doctest examples (``>>> call(...)`` lines in docstrings), which
  document how the product calls a symbol;
* a definition marked as a declared oracle by an RL012 suppression on
  its ``def`` line (``# repro-lint: disable=RL012 -- oracle: <test>``),
  so the mark also covers everything the oracle builds.

Test modules (``is_test``, ``conftest`` included) and ``__all__`` lists
are *not* roots: a symbol that only tests or an export list name is API
that nothing in the product uses.

A public top-level symbol of a checked ``src/repro`` module that the BFS
never reaches is dead public API.  The walk is conservative by design —
a shadowed local that happens to share a function's name counts as a
use — so every report is a symbol with *no* plausible static caller
outside the tests.
"""

from __future__ import annotations

import ast
import re

from .project import ProjectModel, Resolution
from .symbols import ClassInfo, FunctionInfo, ModuleInfo, dotted_name

#: Module name tails that make every contained symbol a root.
_ENTRY_TAILS = frozenset({"cli", "__main__", "setup"})

_DOCTEST_CALL_RE = re.compile(r"^\s*(?:>>>|\.\.\.)\s.*?\b([A-Za-z_][A-Za-z0-9_]*)\s*\(", re.M)

#: An anchored message (rule id added by RL012).
RawFinding = tuple[str, int, int, str]


def _node_id(resolution: Resolution) -> str | None:
    """Graph node for a resolved symbol (methods fold into their class)."""
    if resolution.kind == "function":
        function: FunctionInfo = resolution.value
        module_name, _, local = function.qualname.partition(":")
        if "." in local:  # a method: attribute the use to the class
            return f"{module_name}:{local.partition('.')[0]}"
        return function.qualname
    if resolution.kind == "class":
        info: ClassInfo = resolution.value
        return info.qualname
    return None


class ReferenceGraph:
    """Project-wide reachability over top-level symbols."""

    def __init__(self, project: ProjectModel):
        self.project = project
        #: node id -> (module, lineno, col, kind, name, is_public)
        self.nodes: dict[str, tuple[ModuleInfo, int, int, str, str, bool]] = {}
        self.edges: dict[str, set[str]] = {}
        self.roots: set[str] = set()
        self._build()
        self.reachable = self._walk()

    # -- graph construction ------------------------------------------------

    def _build(self) -> None:
        for module in self.project.all_modules:
            is_entry = not module.is_test and (
                module in self.project.root_only
                or module.name.rpartition(".")[2] in _ENTRY_TAILS
            )
            for function in module.functions.values():
                node = function.qualname
                self.nodes[node] = (
                    module,
                    function.lineno,
                    function.col,
                    "function",
                    function.name,
                    function.is_public,
                )
                self.edges[node] = self._references(
                    module, function.node, class_ctx=None
                )
                if is_entry or module.is_suppressed("RL012", function.lineno):
                    self.roots.add(node)
            for cls in module.classes.values():
                node = cls.qualname
                self.nodes[node] = (
                    module,
                    cls.lineno,
                    cls.col,
                    "class",
                    cls.name,
                    cls.is_public,
                )
                assert cls.node is not None
                self.edges[node] = self._references(
                    module, cls.node, class_ctx=cls
                )
                if is_entry or module.is_suppressed("RL012", cls.lineno):
                    self.roots.add(node)
            if not module.is_test:
                self.roots.update(self._module_level_roots(module))

    def _module_level_roots(self, module: ModuleInfo) -> set[str]:
        """Targets referenced by code that runs at import time."""
        roots: set[str] = set()
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            roots.update(self._references(module, stmt, class_ctx=None))
        roots.update(self._doctest_roots(module))
        return roots

    def _doctest_roots(self, module: ModuleInfo) -> set[str]:
        """Names called from ``>>>`` examples — the doctest runner is a test."""
        roots: set[str] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Constant) or not isinstance(node.value, str):
                continue
            if ">>>" not in node.value:
                continue
            for name in _DOCTEST_CALL_RE.findall(node.value):
                resolution = self.project.resolve_dotted(module, name)
                if resolution is not None:
                    target = _node_id(resolution)
                    if target is not None:
                        roots.add(target)
        return roots

    def _references(
        self, module: ModuleInfo, root: ast.AST, *, class_ctx: ClassInfo | None
    ) -> set[str]:
        """Project symbols statically referenced anywhere under ``root``."""
        spellings: set[str] = set()
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                spellings.add(node.id)
            elif isinstance(node, ast.Attribute):
                spelled = dotted_name(node)
                if spelled is not None:
                    spellings.add(spelled)
        targets: set[str] = set()
        for spelled in spellings:
            resolution = self.project.resolve_dotted(
                module, spelled, class_ctx=class_ctx
            )
            if resolution is not None:
                target = _node_id(resolution)
                if target is not None:
                    targets.add(target)
        return targets

    # -- reachability ------------------------------------------------------

    def _walk(self) -> set[str]:
        reachable: set[str] = set()
        frontier = [node for node in self.roots if node in self.nodes]
        reachable.update(node for node in self.roots if node in self.nodes)
        while frontier:
            current = frontier.pop()
            for target in self.edges.get(current, ()):
                if target in self.nodes and target not in reachable:
                    reachable.add(target)
                    frontier.append(target)
        return reachable

    def dead_public_symbols(self) -> list[RawFinding]:
        """Public symbols in checked (non-test) modules the walk never reached."""
        findings: list[RawFinding] = []
        checked = {id(module) for module in self.project.modules}
        for node, (module, lineno, col, kind, name, is_public) in self.nodes.items():
            if node in self.reachable or not is_public:
                continue
            if module.is_test or id(module) not in checked:
                continue
            findings.append(
                (
                    module.path,
                    lineno,
                    col,
                    f"public {kind} `{name}` is reached only from tests or "
                    "from nothing; delete it, give it a product caller, or "
                    "mark a test oracle with `# repro-lint: disable=RL012 "
                    "-- oracle: <test>`",
                )
            )
        return sorted(set(findings))
