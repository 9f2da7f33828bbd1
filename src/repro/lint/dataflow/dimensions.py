"""The unit-dimension lattice behind RL009.

Units are inferred from the repository's suffix convention: a name whose
last underscore component is a known unit word (``freq_mhz``, ``slack_ps``,
``vdd_v``) carries that unit; names ending in a dimensionless tail
(``_ratio``, ``_factor``, ``_pct``) are explicitly dimensionless; everything
else is *unknown*, which never participates in a mismatch.  ``unknown`` is
the analysis top: inference is deliberately under-approximate so that every
reported mismatch is backed by two names that both state their unit.

Compound rates (``ceff_w_per_ghz``, ``temp_coefficient_per_c``) are not
modeled — any name containing a ``per`` component is unknown.  Single-
component names (a bare ``s`` or ``c``) are also unknown: the suffix is only
trusted when there is a stem in front of it.
"""

from __future__ import annotations

import ast

#: Sentinel unit for explicitly dimensionless values (ratios, counts, ...).
DIMENSIONLESS = "dimensionless"

#: Unit word -> physical dimension.  ``_k`` (kelvin) is deliberately absent:
#: the library is Celsius-only and ``_k`` names fence multipliers
#: (``fence_k``); ``_kg``/``_m`` are absent for the same collision reasons.
UNIT_DIMENSION: dict[str, str] = {
    "hz": "frequency",
    "khz": "frequency",
    "mhz": "frequency",
    "ghz": "frequency",
    "ps": "time",
    "ns": "time",
    "us": "time",
    "ms": "time",
    "s": "time",
    "v": "voltage",
    "mv": "voltage",
    "w": "power",
    "mw": "power",
    "kw": "power",
    "c": "temperature",
    "j": "energy",
    "mj": "energy",
    "a": "current",
    "ma": "current",
}

#: Name tails that mark a value as explicitly dimensionless.  Mirrors the
#: RL004 tails (plus percentage spellings): a ratio of two quantities has
#: no unit, and multiplying a quantity by one preserves its unit.
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

#: Exact (lowered) names that carry a unit without a suffix.  ``vdd`` is the
#: supply rail and is always volts (see the RL004 parameter allowlist).
#: ``mv`` is a bare millivolt quantity.
NAMED_UNITS: dict[str, str] = {"vdd": "v", "nominal_vdd": "v", "mv": "mv"}


def unit_of_name(name: str) -> str | None:
    """Infer the unit a name declares, or ``None`` when it declares nothing.

    >>> unit_of_name("freq_mhz")
    'mhz'
    >>> unit_of_name("STATIC_MARGIN_MHZ")
    'mhz'
    >>> unit_of_name("speedup_ratio")
    'dimensionless'
    >>> unit_of_name("ceff_w_per_ghz") is None  # compound rate: unmodeled
    True
    >>> unit_of_name("s") is None  # bare suffix with no stem
    True
    >>> unit_of_name("power_budget_w_for_mhz")  # `for` names the argument
    'w'
    """
    lowered = name.lower()
    if lowered in NAMED_UNITS:
        return NAMED_UNITS[lowered]
    components = [part for part in lowered.split("_") if part]
    if "for" in components:
        # `x_w_for_mhz` is a w-valued quantity keyed by a mhz argument;
        # only the part before `for` names the value itself.
        components = components[: components.index("for")]
    if len(components) < 2 or "per" in components:
        return None
    tail = components[-1]
    if tail in DIMENSIONLESS_TAILS:
        return DIMENSIONLESS
    if tail in UNIT_DIMENSION:
        return tail
    return None


def dimension_of(unit: str) -> str:
    """Human-readable dimension word for a unit (used in messages)."""
    if unit == DIMENSIONLESS:
        return "dimensionless"
    return UNIT_DIMENSION.get(unit, "unknown")


def describe(unit: str) -> str:
    """Render a unit for a finding message, e.g. ``_mhz (frequency)``."""
    if unit == DIMENSIONLESS:
        return "a dimensionless value"
    return f"_{unit} ({dimension_of(unit)})"


def is_quantity(unit: str | None) -> bool:
    """True for a concrete physical unit (not unknown, not dimensionless)."""
    return unit is not None and unit != DIMENSIONLESS


def mismatch(left: str | None, right: str | None) -> bool:
    """True when two inferred units are provably incompatible.

    Only two *concrete* units of different spelling mismatch; ``None``
    (unknown) and :data:`DIMENSIONLESS` are compatible with everything at
    the comparison/addition level — dimensionless offsets are suspicious
    but too common in clamp/guard idioms to flag.
    """
    return is_quantity(left) and is_quantity(right) and left != right


def combine_add(left: str | None, right: str | None) -> str | None:
    """Resulting unit of ``left + right`` (also sub/min/max/mod merges)."""
    if is_quantity(left):
        return left
    if is_quantity(right):
        return right
    if left == DIMENSIONLESS and right == DIMENSIONLESS:
        return DIMENSIONLESS
    return None


def combine_mul(left: str | None, right: str | None) -> str | None:
    """Resulting unit of ``left * right``; compound products are unknown."""
    if left == DIMENSIONLESS:
        return right
    if right == DIMENSIONLESS:
        return left
    # quantity * quantity (e.g. W * s) would be a compound unit; quantity *
    # unknown could be anything — both collapse to unknown.
    return None


def combine_div(left: str | None, right: str | None) -> str | None:
    """Resulting unit of ``left / right``."""
    if is_quantity(left) and left == right:
        return DIMENSIONLESS
    if right == DIMENSIONLESS:
        return left
    if left == DIMENSIONLESS and right == DIMENSIONLESS:
        return DIMENSIONLESS
    return None


def combine_binop(op: ast.operator, left: str | None, right: str | None) -> str | None:
    """Resulting unit of a binary arithmetic operation."""
    if isinstance(op, (ast.Add, ast.Sub, ast.Mod)):
        return combine_add(left, right)
    if isinstance(op, ast.Mult):
        return combine_mul(left, right)
    if isinstance(op, (ast.Div, ast.FloorDiv)):
        return combine_div(left, right)
    if isinstance(op, ast.Pow):
        return DIMENSIONLESS if left == DIMENSIONLESS else None
    return None


def checks_in_binop(op: ast.operator) -> bool:
    """Whether operands of ``op`` must agree in unit (add-like operators)."""
    return isinstance(op, (ast.Add, ast.Sub, ast.Mod))
