"""Seed-provenance taint analysis (the RL010 engine).

RL001 bans *call sites* that touch ``np.random``/stdlib ``random``
directly; this analysis generalizes the contract to *flows*: any RNG
value whose provenance is not an :class:`repro.rng.RngStreams` stream or
an explicit seed must never reach the deterministic physics — code under
``atm/``, ``core/``, ``experiments/``, or ``fastpath/``.

Taint sources (the value is an unseeded / process-seeded generator):

* ``np.random.default_rng()`` / ``random.Random()`` called with **no**
  arguments, or with an argument that is itself tainted;
* any draw through the module-level global state (``np.random.rand(...)``,
  ``random.random()``, ...);
* ``os.urandom`` / the ``secrets`` module.

Clean by construction: ``RngStreams.stream/streams/fresh/spawn`` results (matched
both by resolution and by attribute name, so ``streams.stream("x")``
stays clean behind any alias) and generators seeded from a ``seed``
parameter or constant.

Propagation is flow-insensitive per function (assignments and returns)
and interprocedural through two global fixed points: *returns-tainted*
function summaries and a tainted-parameter set fed by every resolved call
site.  Findings anchor where the taint crosses into a protected zone —
the offending call argument or the in-zone construction site.
"""

from __future__ import annotations

import ast

from .project import ProjectModel, iter_all_functions
from .symbols import ClassInfo, FunctionInfo, ModuleInfo, dotted_name

#: External callables that *construct* a generator; unseeded when called
#: with no arguments (or a tainted one).
_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "random.Random",
    }
)

#: External name prefixes whose call results are always tainted: draws
#: from process-global RNG state or true entropy.
_ALWAYS_TAINTED_PREFIXES = ("numpy.random.", "random.", "secrets.")

_ALWAYS_TAINTED_EXACT = frozenset({"os.urandom", "uuid.uuid4"})

#: Attribute names that mint named deterministic streams (RngStreams API).
_CLEAN_STREAM_ATTRS = frozenset({"stream", "streams", "fresh", "spawn"})

#: An anchored message (rule id added by RL010).
RawFinding = tuple[str, int, int, str]

_MAX_PASSES = 6


def _external_spelling(project: ProjectModel, module: ModuleInfo, func: ast.expr,
                       cls: ClassInfo | None) -> str | None:
    """Canonical dotted spelling of an external callee, if resolvable."""
    resolution = project.resolve_call_target(module, func, class_ctx=cls)
    if resolution is not None and resolution.kind == "external":
        return str(resolution.value)
    if resolution is None:
        # No import binding in scope (fixture snippets): fall back to the
        # conventional alias spelling.
        spelled = dotted_name(func)
        if spelled is not None and spelled.startswith("np.random."):
            return "numpy." + spelled.split(".", 1)[1]
        if spelled is not None and spelled.startswith(
            ("numpy.random.", "random.", "secrets.", "os.urandom")
        ):
            return spelled
    return None


class TaintAnalysis:
    """Two-level fixed point: function summaries + tainted parameters."""

    def __init__(self, project: ProjectModel):
        self.project = project
        #: qualname -> True when the function can return a tainted value.
        self.returns_tainted: dict[str, bool] = {}
        #: (qualname, param name) pairs observed to receive tainted args.
        self.tainted_params: set[tuple[str, str]] = set()
        self._converge()

    def _converge(self) -> None:
        for _ in range(_MAX_PASSES):
            changed = False
            for module, cls, function in iter_all_functions(self.project):
                scan = _TaintScan(self, module, cls, function, emit=False)
                scan.run()
                if scan.returns_tainted and not self.returns_tainted.get(
                    function.qualname
                ):
                    self.returns_tainted[function.qualname] = True
                    changed = True
                before = len(self.tainted_params)
                self.tainted_params |= scan.new_tainted_params
                changed = changed or len(self.tainted_params) != before
            if not changed:
                return

    def check_all(self) -> list[RawFinding]:
        """All RL010 raw findings, sorted.

        Every module (including root-only ones) contributes call sites —
        a test handing an unseeded generator to experiment code is still
        a broken flow — but findings anchor at the crossing, which the
        caller's suppression map governs.
        """
        findings: list[RawFinding] = []
        for module, cls, function in iter_all_functions(self.project):
            scan = _TaintScan(self, module, cls, function, emit=True)
            scan.run()
            findings.extend(scan.findings)
        return sorted(set(findings))


class _TaintScan:
    """One pass over a function: propagate locally, record crossings."""

    def __init__(
        self,
        analysis: TaintAnalysis,
        module: ModuleInfo,
        cls: ClassInfo | None,
        function: FunctionInfo,
        *,
        emit: bool,
    ):
        self.analysis = analysis
        self.project = analysis.project
        self.module = module
        self.cls = cls
        self.function = function
        self.emit = emit
        self.tainted: set[str] = {
            param.name
            for param in function.params
            if (function.qualname, param.name) in analysis.tainted_params
        }
        self.returns_tainted = False
        self.new_tainted_params: set[tuple[str, str]] = set()
        self.findings: list[RawFinding] = []

    def run(self) -> None:
        # Two local passes so a use-before-def inside a loop still sees the
        # taint established further down the body.
        for _ in range(2):
            before = len(self.tainted)
            for stmt in ast.walk(self.function.node):
                self._visit(stmt)
            if len(self.tainted) == before:
                break

    # -- node handling -----------------------------------------------------

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            if self._is_tainted(node.value):
                for target in node.targets:
                    self._taint_target(target)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if self._is_tainted(node.value):
                self._taint_target(node.target)
        elif isinstance(node, ast.NamedExpr):
            if self._is_tainted(node.value):
                self._taint_target(node.target)
        elif isinstance(node, ast.Return) and node.value is not None:
            if self._is_tainted(node.value):
                self.returns_tainted = True
        elif isinstance(node, ast.Call):
            self._visit_call(node)

    def _taint_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.tainted.add(target.id)
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ) and target.value.id in ("self", "cls"):
            self.tainted.add(f"self.{target.attr}")

    def _visit_call(self, call: ast.Call) -> None:
        """Record taint crossing into resolved callees; report zone entries."""
        resolution = self.project.resolve_call_target(
            self.module, call.func, class_ctx=self.cls
        )
        target_params = None
        target_module = None
        callee_name = None
        if resolution is not None and resolution.kind == "function":
            function: FunctionInfo = resolution.value
            params = function.params
            if function.is_method and isinstance(call.func, ast.Attribute):
                params = params[1:]
            target_params = (function.qualname, params)
            target_module = resolution.module
            callee_name = function.name
        elif resolution is not None and resolution.kind == "class":
            params = self.project.constructor_params(resolution.value)
            if params is not None:
                target_params = (resolution.value.qualname, params)
            target_module = resolution.module
            callee_name = resolution.value.name
        if target_params is None:
            return
        qualname, params = target_params
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred) or index >= len(params):
                continue
            if self._is_tainted(arg):
                self._cross(call, arg, qualname, params[index].name,
                            target_module, callee_name)
        by_name = {param.name: param for param in params}
        for keyword in call.keywords:
            if keyword.arg is None or keyword.arg not in by_name:
                continue
            if self._is_tainted(keyword.value):
                self._cross(call, keyword.value, qualname, keyword.arg,
                            target_module, callee_name)

    def _cross(
        self,
        call: ast.Call,
        arg: ast.expr,
        qualname: str,
        param_name: str,
        target_module: ModuleInfo | None,
        callee_name: str | None,
    ) -> None:
        self.new_tainted_params.add((qualname, param_name))
        if (
            self.emit
            and target_module is not None
            and target_module.zone is not None
        ):
            self._report(
                arg,
                f"unseeded RNG flows into `{callee_name}` "
                f"(parameter `{param_name}`, {target_module.zone}/ code); "
                "derive it from RngStreams (repro.rng) instead",
            )

    # -- taint of expressions ----------------------------------------------

    def _is_tainted(self, expr: ast.expr) -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in self.tainted
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id in (
                "self",
                "cls",
            ):
                return f"self.{expr.attr}" in self.tainted
            return False
        if isinstance(expr, ast.Call):
            return self._call_is_tainted(expr)
        if isinstance(expr, (ast.IfExp,)):
            return self._is_tainted(expr.body) or self._is_tainted(expr.orelse)
        if isinstance(expr, ast.BoolOp):
            return any(self._is_tainted(value) for value in expr.values)
        if isinstance(expr, (ast.Tuple, ast.List)):
            return any(self._is_tainted(element) for element in expr.elts)
        if isinstance(expr, ast.NamedExpr):
            return self._is_tainted(expr.value)
        return False

    def _call_is_tainted(self, call: ast.Call) -> bool:
        # Named deterministic streams are clean regardless of receiver.
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _CLEAN_STREAM_ATTRS
        ):
            return False
        external = _external_spelling(
            self.project, self.module, call.func, self.cls
        )
        if external is not None:
            if external in _ALWAYS_TAINTED_EXACT:
                self._note_source(call, external)
                return True
            if external in _CONSTRUCTORS:
                if not call.args and not call.keywords:
                    self._note_source(call, external + "()")
                    return True
                tainted = any(self._is_tainted(arg) for arg in call.args)
                if tainted:
                    self._note_source(call, external + "(<tainted>)")
                return tainted
            if external.startswith(_ALWAYS_TAINTED_PREFIXES):
                self._note_source(call, external)
                return True
            return False
        resolution = self.project.resolve_call_target(
            self.module, call.func, class_ctx=self.cls
        )
        if resolution is not None and resolution.kind == "function":
            return bool(
                self.analysis.returns_tainted.get(resolution.value.qualname)
            )
        return False

    def _note_source(self, call: ast.Call, spelling: str) -> None:
        """Report an unseeded source *constructed inside* a protected zone."""
        if self.emit and self.module.zone is not None:
            self._report(
                call,
                f"unseeded RNG source `{spelling}` in {self.module.zone}/ "
                "code; derive randomness from RngStreams (repro.rng)",
            )

    def _report(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            (
                self.module.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                message,
            )
        )
