"""Interprocedural unit-dimension propagation (the RL009 engine).

Every function gets a *summary* (its return unit); summaries start from
the name contract (``def idle_frequency_mhz`` returns MHz) and unknown
returns are filled by inferring return expressions against the current
summary table until a fixed point (bounded).  A final pass re-walks every
checked module with the converged summaries and emits a mismatch wherever
two values that both *state* their unit disagree:

* ``a_mhz + b_v`` / ``a_ps < b_s`` — arithmetic/comparison across units;
* ``voltage_v = freq_mhz`` — assignment into a unit-suffixed name;
* ``set_rail(vdd_v=freq_mhz)`` — call argument into a unit-suffixed
  parameter (converter misuse is this case: ``mhz_to_cycle_ps(cycle_ps)``);
* ``return cycle_ps`` from ``def frequency_mhz(...)`` — return contract.

Unknown never participates in a mismatch, so precision losses (dynamic
calls, compound rates, untyped literals) silence the analysis instead of
polluting it.
"""

from __future__ import annotations

import ast

from .dimensions import (
    checks_in_binop,
    combine_add,
    combine_binop,
    describe,
    is_quantity,
    mismatch,
    unit_of_name,
)
from .project import ProjectModel, iter_all_functions, iter_checked_functions
from .symbols import ClassInfo, FunctionInfo, ModuleInfo, Param

#: Callables (by bare/attribute tail name) that return the merged unit of
#: their arguments and require the quantity-typed arguments to agree.
_MERGING_PASSTHROUGH = frozenset(
    {"min", "max", "maximum", "minimum", "fmin", "fmax", "where"}
)

#: Callables that return the unit of their (first typed) argument.
_VALUE_PASSTHROUGH = frozenset(
    {
        "abs",
        "absolute",
        "array",
        "asarray",
        "float",
        "mean",
        "median",
        "round",
        "sorted",
        "sum",
        "require_positive",
    }
)

#: An anchored message produced by the analysis (rule id added by RL009).
RawFinding = tuple[str, int, int, str]

#: Fixed-point iteration bound for return-summary inference; unit chains
#: through helpers are shallow, so convergence is fast in practice.
_MAX_PASSES = 4


class UnitAnalysis:
    """Computes summaries once, then checks every module against them."""

    def __init__(self, project: ProjectModel):
        self.project = project
        self.summaries: dict[str, str | None] = {}
        for _module, _cls, function in iter_all_functions(project):
            self.summaries[function.qualname] = unit_of_name(function.name)
        self._converge()

    def _converge(self) -> None:
        for _ in range(_MAX_PASSES):
            changed = False
            for module, cls, function in iter_all_functions(self.project):
                if self.summaries.get(function.qualname) is not None:
                    continue
                scan = _Scan(self, module, cls, emit=False)
                inferred = scan.run_function(function)
                if inferred is not None:
                    self.summaries[function.qualname] = inferred
                    changed = True
            if not changed:
                return

    def return_unit(self, qualname: str) -> str | None:
        return self.summaries.get(qualname)

    def check_all(self) -> list[RawFinding]:
        """All RL009 raw findings, sorted."""
        findings: list[RawFinding] = []
        for module in self.project.modules:
            body_scan = _Scan(self, module, None, emit=True)
            body_scan.run_module_body(module)
            findings.extend(body_scan.findings)
        for module, cls, function in iter_checked_functions(self.project):
            scan = _Scan(self, module, cls, emit=True)
            scan.run_function(function)
            findings.extend(scan.findings)
        return sorted(set(findings))


class _Scan:
    """One walk over a function (or module body) with a unit environment."""

    def __init__(
        self,
        analysis: UnitAnalysis,
        module: ModuleInfo,
        cls: ClassInfo | None,
        *,
        emit: bool,
    ):
        self.analysis = analysis
        self.project = analysis.project
        self.module = module
        self.cls = cls
        self.emit = emit
        self.findings: list[RawFinding] = []
        self.env: dict[str, str | None] = {}
        self.return_units: list[str] = []
        self.declared_return: str | None = None
        self.function_name = "<module>"

    # -- entry points ------------------------------------------------------

    def run_function(self, function: FunctionInfo) -> str | None:
        self.function_name = function.name
        self.declared_return = self.analysis.summaries.get(function.qualname)
        for param in function.params:
            self.env[param.name] = unit_of_name(param.name)
        self._stmts(function.node.body)
        merged: str | None = None
        for unit in self.return_units:
            if merged is None:
                merged = unit
            elif is_quantity(merged) and is_quantity(unit) and merged != unit:
                return None  # ambiguous returns: publish no summary
            elif not is_quantity(merged):
                merged = unit
        return merged

    def run_module_body(self, module: ModuleInfo) -> None:
        self._stmts(module.tree.body)

    # -- statements --------------------------------------------------------

    def _stmts(self, statements: list[ast.stmt]) -> None:
        for stmt in statements:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value_unit = self.infer(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, value_unit, stmt.value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self._bind_target(stmt.target, self.infer(stmt.value), stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            value_unit = self.infer(stmt.value)
            current = self._read_target(stmt.target)
            if checks_in_binop(stmt.op) and mismatch(current, value_unit):
                self._report(
                    stmt,
                    f"augmented assignment combines {describe(current)} with "
                    f"{describe(value_unit)}",
                )
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                unit = self.infer(stmt.value)
                if unit is not None:
                    self.return_units.append(unit)
                if mismatch(self.declared_return, unit):
                    self._report(
                        stmt,
                        f"`{self.function_name}` declares a "
                        f"{describe(self.declared_return)} return but returns "
                        f"{describe(unit)}",
                    )
        elif isinstance(stmt, ast.For) or isinstance(stmt, ast.AsyncFor):
            element = self.infer(stmt.iter)
            self._bind_target(stmt.target, element, None)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.infer(stmt.test)
            self._stmts(stmt.body)
            self._stmts(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.infer(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(item.optional_vars, None, None)
            self._stmts(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._stmts(stmt.body)
            for handler in stmt.handlers:
                self._stmts(handler.body)
            self._stmts(stmt.orelse)
            self._stmts(stmt.finalbody)
        elif isinstance(stmt, ast.Expr):
            self.infer(stmt.value)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are analyzed via the symbol table
        else:
            # Raise/Assert/Delete/match/...: infer contained expressions and
            # recurse into contained statement lists, in field order.
            for _name, value in ast.iter_fields(stmt):
                if isinstance(value, ast.expr):
                    self.infer(value)
                elif isinstance(value, list):
                    for item in value:
                        if isinstance(item, ast.stmt):
                            self._stmt(item)
                        elif isinstance(item, ast.expr):
                            self.infer(item)

    def _read_target(self, target: ast.expr) -> str | None:
        if isinstance(target, ast.Name):
            unit = self.env.get(target.id)
            return unit if unit is not None else unit_of_name(target.id)
        if isinstance(target, ast.Attribute):
            return unit_of_name(target.attr)
        return None

    def _bind_target(
        self, target: ast.expr, value_unit: str | None, value: ast.expr | None
    ) -> None:
        if isinstance(target, ast.Name):
            declared = unit_of_name(target.id)
            if mismatch(declared, value_unit):
                self._report(
                    value if value is not None else target,
                    f"assigning {describe(value_unit)} value to `{target.id}` "
                    f"which is declared {describe(declared)}",
                )
            self.env[target.id] = declared if declared is not None else value_unit
        elif isinstance(target, ast.Attribute):
            declared = unit_of_name(target.attr)
            if mismatch(declared, value_unit):
                self._report(
                    value if value is not None else target,
                    f"assigning {describe(value_unit)} value to attribute "
                    f"`{target.attr}` which is declared {describe(declared)}",
                )
        elif isinstance(target, ast.Subscript):
            declared = self.infer(target.value)
            if mismatch(declared, value_unit):
                self._report(
                    value if value is not None else target,
                    f"storing {describe(value_unit)} value into a container "
                    f"declared {describe(declared)}",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(
                target.elts
            ):
                for sub_target, sub_value in zip(target.elts, value.elts):
                    self._bind_target(sub_target, self.infer(sub_value), sub_value)
            else:
                for sub_target in target.elts:
                    self._bind_target(sub_target, None, None)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, None, None)

    # -- expressions -------------------------------------------------------

    def infer(self, expr: ast.expr | None) -> str | None:
        if expr is None:
            return None
        if isinstance(expr, ast.Name):
            if expr.id in self.env:
                return self.env[expr.id]
            return unit_of_name(expr.id)
        if isinstance(expr, ast.Attribute):
            self.infer(expr.value)
            return unit_of_name(expr.attr)
        if isinstance(expr, ast.Constant):
            return None
        if isinstance(expr, ast.Subscript):
            self.infer(expr.slice)
            return self.infer(expr.value)
        if isinstance(expr, ast.BinOp):
            left = self.infer(expr.left)
            right = self.infer(expr.right)
            if checks_in_binop(expr.op) and mismatch(left, right):
                self._report(
                    expr,
                    f"arithmetic combines {describe(left)} with "
                    f"{describe(right)}",
                )
            return combine_binop(expr.op, left, right)
        if isinstance(expr, ast.UnaryOp):
            return self.infer(expr.operand)
        if isinstance(expr, ast.Compare):
            units = [self.infer(expr.left)]
            units.extend(self.infer(comparator) for comparator in expr.comparators)
            for index in range(len(units) - 1):
                if mismatch(units[index], units[index + 1]):
                    self._report(
                        expr,
                        f"comparing {describe(units[index])} value with "
                        f"{describe(units[index + 1])} value",
                    )
            return None
        if isinstance(expr, ast.BoolOp):
            units = [self.infer(value) for value in expr.values]
            merged: str | None = None
            for unit in units:
                merged = combine_add(merged, unit)
            return merged
        if isinstance(expr, ast.IfExp):
            self.infer(expr.test)
            body = self.infer(expr.body)
            orelse = self.infer(expr.orelse)
            if mismatch(body, orelse):
                self._report(
                    expr,
                    f"conditional arms disagree: {describe(body)} vs "
                    f"{describe(orelse)}",
                )
            return combine_add(body, orelse)
        if isinstance(expr, ast.Call):
            return self._infer_call(expr)
        if isinstance(expr, ast.NamedExpr):
            unit = self.infer(expr.value)
            self._bind_target(expr.target, unit, expr.value)
            return unit
        if isinstance(
            expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            return self._infer_comprehension(expr)
        if isinstance(expr, ast.Starred):
            return self.infer(expr.value)
        # Tuples, lists, dicts, f-strings, lambdas, slices, ...: infer the
        # children for their side findings, publish no unit.
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self.infer(child)
        return None

    def _infer_comprehension(self, expr) -> str | None:
        saved = dict(self.env)
        for generator in expr.generators:
            element = self.infer(generator.iter)
            self._bind_target(generator.target, element, None)
            for condition in generator.ifs:
                self.infer(condition)
        if isinstance(expr, ast.DictComp):
            self.infer(expr.key)
            self.infer(expr.value)
            unit = None
        else:
            unit = self.infer(expr.elt)
        self.env = saved
        return unit

    def _infer_call(self, call: ast.Call) -> str | None:
        resolution = self.project.resolve_call_target(
            self.module, call.func, class_ctx=self.cls
        )
        for keyword in call.keywords:
            self.infer(keyword.value)
        arg_units = [self.infer(arg) for arg in call.args]
        tail = self._call_tail(call.func)
        if resolution is not None and resolution.kind == "function":
            function: FunctionInfo = resolution.value
            self._check_args(call, function.params, function.name,
                             skip_self=self._is_bound_call(call.func, function))
            return self.analysis.return_unit(function.qualname)
        if resolution is not None and resolution.kind == "class":
            params = self.project.constructor_params(resolution.value)
            if params is not None:
                self._check_args(call, params, resolution.value.name)
            return None
        if tail in _MERGING_PASSTHROUGH:
            merged: str | None = None
            skip = 1 if tail == "where" else 0
            for unit in arg_units[skip:]:
                if mismatch(merged, unit):
                    self._report(
                        call,
                        f"`{tail}(...)` merges {describe(merged)} with "
                        f"{describe(unit)}",
                    )
                merged = combine_add(merged, unit)
            return merged
        if tail in _VALUE_PASSTHROUGH:
            for unit in arg_units:
                if unit is not None:
                    return unit
            return None
        if tail is not None:
            # Unresolved call, but the callee's *name* states its unit
            # (`sim.idle_frequency_mhz(...)`): trust the contract.
            return unit_of_name(tail)
        return None

    @staticmethod
    def _call_tail(func: ast.expr) -> str | None:
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    @staticmethod
    def _is_bound_call(func: ast.expr, function: FunctionInfo) -> bool:
        """True when the first parameter (self/cls) is bound by the syntax."""
        return function.is_method and isinstance(func, ast.Attribute)

    def _check_args(
        self,
        call: ast.Call,
        params: list[Param],
        callee: str,
        *,
        skip_self: bool = False,
    ) -> None:
        effective = params[1:] if skip_self and params else params
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred) or index >= len(effective):
                continue
            self._check_one_arg(arg, effective[index], callee)
        by_name = {param.name: param for param in effective}
        for keyword in call.keywords:
            if keyword.arg is None:
                continue
            param = by_name.get(keyword.arg)
            if param is not None:
                self._check_one_arg(keyword.value, param, callee)

    def _check_one_arg(self, arg: ast.expr, param: Param, callee: str) -> None:
        declared = unit_of_name(param.name)
        if not is_quantity(declared):
            return
        actual = self.infer(arg)
        if mismatch(declared, actual):
            self._report(
                arg,
                f"passing {describe(actual)} value to parameter "
                f"`{param.name}` ({describe(declared)}) of `{callee}`",
            )

    # -- reporting ---------------------------------------------------------

    def _report(self, node: ast.AST, message: str) -> None:
        if not self.emit:
            return
        self.findings.append(
            (
                self.module.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                f"unit mismatch: {message}",
            )
        )
