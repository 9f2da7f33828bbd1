"""RL004 — unit-suffix rule.

The library's internal unit table (``repro.units``) only protects against
MHz-vs-ps mixups if quantity-valued names *say* their unit.  This rule
checks public function signatures: a ``float`` parameter (or return) whose
name names a physical quantity must end in the matching unit suffix.

The check is deliberately heuristic: names are split on underscores, the
first component that is a known quantity word selects the expected suffix
set, and a small allowlist covers idioms where the quantity word does not
denote a quantity (e.g. the alpha-power law).
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence

from ..engine import Finding, LintContext, Rule

_FREQ = frozenset({"hz", "khz", "mhz", "ghz"})
_TIME = frozenset({"ps", "ns", "us", "ms", "s", "years"})
_VOLT = frozenset({"v", "mv"})
_POWER = frozenset({"w", "mw", "kw"})
_TEMP = frozenset({"c", "k"})
_ENERGY = frozenset({"j", "mj", "wh"})
_CURRENT = frozenset({"a", "ma"})

#: Quantity word -> acceptable unit suffixes (the name's last component).
QUANTITY_SUFFIXES: dict[str, frozenset[str]] = {
    "freq": _FREQ,
    "freqs": _FREQ,
    "frequency": _FREQ,
    "frequencies": _FREQ,
    "delay": _TIME,
    "delays": _TIME,
    "latency": _TIME,
    "period": _TIME,
    "duration": _TIME,
    "voltage": _VOLT,
    "voltages": _VOLT,
    "vdd": _VOLT,
    "droop": _VOLT,
    "power": _POWER,
    "temp": _TEMP,
    "temperature": _TEMP,
    "temperatures": _TEMP,
    "energy": _ENERGY,
    "current": _CURRENT,
}

#: Last name components marking a dimensionless derived value (a ratio of
#: quantities needs no unit suffix).
DIMENSIONLESS_TAILS = frozenset(
    {
        "count",
        "exponent",
        "factor",
        "fraction",
        "gain",
        "index",
        "norm",
        "pct",
        "percent",
        "ratio",
        "scale",
        "slope",
        "speedup",
    }
)

#: Exact function names exempt from the return-suffix check.  Entries must
#: carry a justification; prefer renaming when the name really is a
#: quantity.
NAME_ALLOWLIST = frozenset(
    {
        # alpha-power MOSFET delay law: "power" is an exponent, not watts.
        "alpha_power_delay_factor",
    }
)

#: Exact parameter names that are self-describing quantities.  ``vdd`` is
#: the supply-rail name and is always volts in this library (mirroring
#: ``repro.units.NOMINAL_VDD``); forcing ``vdd_v`` everywhere adds noise
#: without removing ambiguity.
PARAM_ALLOWLIST = frozenset({"vdd"})


def _is_float_annotation(node: ast.expr | None) -> bool:
    """True for ``float`` and optional forms like ``float | None``."""
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id == "float"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value == "float"
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return _is_float_annotation(node.left) or _is_float_annotation(node.right)
    return False


def expected_suffixes(name: str) -> tuple[str, frozenset[str]] | None:
    """Return ``(quantity_word, suffixes)`` when ``name`` needs one, else None.

    A name passes when any underscore component carries a suffix from the
    set selected by the first quantity word found in it (this accepts
    compound names like ``latency_ms_at`` and ratio names like
    ``delay_sensitivity_ps_per_v``), or when it ends in a dimensionless
    tail such as ``_factor`` or ``_ratio``.
    """
    components = name.lower().split("_")
    if components[-1] in DIMENSIONLESS_TAILS:
        return None
    for component in components:
        suffixes = QUANTITY_SUFFIXES.get(component)
        if suffixes is None:
            continue
        if any(candidate in suffixes for candidate in components):
            return None
        return component, suffixes
    return None


class UnitSuffixRule(Rule):
    """RL004: quantity-valued floats in public signatures carry unit suffixes."""

    rule_id = "RL004"
    severity = "warning"
    summary = "unit-suffix"
    rationale = (
        "a float named `freq` can hold MHz or ps without any test noticing; "
        "suffixes make the unit part of the contract"
    )
    interests = (ast.FunctionDef, ast.AsyncFunctionDef)

    def applies(self, ctx: LintContext) -> bool:
        return ctx.in_repro_src and not ctx.is_test

    def visit(
        self, node: ast.AST, parents: Sequence[ast.AST], ctx: LintContext
    ) -> Iterable[Finding]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if node.name.startswith("_"):
            return
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.arg in PARAM_ALLOWLIST:
                continue
            needed = expected_suffixes(arg.arg)
            if needed and _is_float_annotation(arg.annotation):
                word, suffixes = needed
                yield self.finding(
                    ctx,
                    arg,
                    f"float parameter `{arg.arg}` names a {word} quantity but "
                    f"lacks a unit suffix ({self._fmt(suffixes)})",
                )
        if node.name in NAME_ALLOWLIST:
            return
        needed = expected_suffixes(node.name)
        if needed and _is_float_annotation(node.returns):
            word, suffixes = needed
            yield self.finding(
                ctx,
                node,
                f"function `{node.name}` returns a float {word} quantity but "
                f"its name lacks a unit suffix ({self._fmt(suffixes)})",
            )

    @staticmethod
    def _fmt(suffixes: frozenset[str]) -> str:
        return "expected one of: " + ", ".join(
            f"_{suffix}" for suffix in sorted(suffixes)
        )
