"""Declarative alert and SLO rule definitions.

The control-plane vocabulary of the alerting layer: frozen
:class:`AlertRule` / :class:`SloTarget` dataclasses, JSON pack loaders,
and the default rule pack the CLI ships.  Four rule kinds mirror the
monitors the paper's management story needs (runtime monitor → guardband
violation → rollback, Fig. 11; fleet health under a power budget, §VII):

``threshold``
    A reduced window value crosses a fixed bound.
``ratio_vs_baseline``
    A reduced window value drifts past ``ratio ×`` a baseline (explicit,
    or the run's first window), through the shared
    :func:`~repro.obs.stream.gates.exceeds_ratio_gate` predicate.
``quantile_fence``
    A reduced window value escapes the shared nearest-rank
    :func:`~repro.obs.stream.gates.quantile_fence` over the run's windows,
    the same fence :mod:`repro.core.fleet_health` draws around a fleet.
``slo_burn_rate``
    (:class:`SloTarget`) the cumulative fraction of objective-violating
    windows burns the error budget faster than ``burn_threshold``.

Every metric name is validated through the same
:func:`~repro.lint.rules.alert_hygiene.metric_name_problems` predicate
RL013 applies to literal definitions, so JSON packs cannot smuggle in
unsuffixed or wall-clock metrics the linter would reject in source.
Every numeric field must be a finite real number (not a bool, string or
NaN): a NaN bound compares false against every value, so it would
silently switch the rule off.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from numbers import Real
from pathlib import Path

from ...errors import ConfigurationError
from ...lint.rules.alert_hygiene import metric_name_problems
from ..stream.gates import DEFAULT_FENCE_K
from ..tsdb.series import validate_metric_name

RULE_PACK_SCHEMA = "alert_rules/v1"
SLO_PACK_SCHEMA = "slo/v1"

#: Alert-rule kinds (SLO burn-rate is spelled as a :class:`SloTarget`).
RULE_KINDS = ("threshold", "ratio_vs_baseline", "quantile_fence")

#: Per-window reducers; each is a key of ``MetricTimeSeries.windows()``.
REDUCERS = ("mean", "min", "max", "count", "sum")

OPS = ("above", "below")
SEVERITIES = ("info", "warning", "critical")

#: The kind stamped on SLO burn-rate firings.
SLO_KIND = "slo_burn_rate"


def _check_metric(metric: str) -> str:
    validate_metric_name(metric)
    problems = metric_name_problems(metric)
    if problems:
        raise ConfigurationError(
            f"metric {metric!r} fails alert hygiene (RL013): "
            + "; ".join(problems)
        )
    return metric


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not name or "\n" in name:
        raise ConfigurationError(f"invalid rule name {name!r}")
    return name


def _check_finite(owner: str, item, names: tuple[str, ...]) -> None:
    """Reject any named field that is not a finite real number."""
    for name in names:
        value = getattr(item, name)
        if (
            isinstance(value, bool)
            or not isinstance(value, Real)
            or not math.isfinite(value)
        ):
            raise ConfigurationError(
                f"{owner}: {name} must be a finite number, got {value!r}"
            )


@dataclass(frozen=True)
class AlertRule:
    """One deterministic predicate over a metric's tick windows."""

    name: str
    kind: str
    metric: str
    reduce: str = "mean"
    op: str = "above"
    threshold: float = 0.0
    ratio: float = 2.0
    baseline: float | None = None
    min_delta: float = 0.0
    fence_k: float = DEFAULT_FENCE_K
    severity: str = "warning"

    def __post_init__(self):
        _check_name(self.name)
        if self.kind not in RULE_KINDS:
            raise ConfigurationError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(RULE_KINDS)})"
            )
        _check_metric(self.metric)
        if self.reduce not in REDUCERS:
            raise ConfigurationError(
                f"rule {self.name!r}: unknown reducer {self.reduce!r} "
                f"(expected one of {', '.join(REDUCERS)})"
            )
        if self.op not in OPS:
            raise ConfigurationError(
                f"rule {self.name!r}: unknown op {self.op!r}"
            )
        if self.severity not in SEVERITIES:
            raise ConfigurationError(
                f"rule {self.name!r}: unknown severity {self.severity!r}"
            )
        _check_finite(
            f"rule {self.name!r}",
            self,
            ("threshold", "ratio", "min_delta", "fence_k")
            + (("baseline",) if self.baseline is not None else ()),
        )
        if self.kind == "ratio_vs_baseline" and self.ratio <= 1.0:
            raise ConfigurationError(
                f"rule {self.name!r}: ratio must be > 1, got {self.ratio}"
            )
        if self.min_delta < 0.0:
            raise ConfigurationError(
                f"rule {self.name!r}: min_delta must be >= 0, "
                f"got {self.min_delta}"
            )
        if self.fence_k <= 0.0:
            raise ConfigurationError(
                f"rule {self.name!r}: fence_k must be > 0, got {self.fence_k}"
            )

    def describe(self) -> str:
        """Human-readable predicate, for ``repro obs alerts list``."""
        value = f"{self.reduce}({self.metric})"
        if self.kind == "threshold":
            return f"{value} {self.op} {self.threshold}"
        if self.kind == "ratio_vs_baseline":
            base = (
                "first window"
                if self.baseline is None
                else f"baseline {self.baseline}"
            )
            return f"{value} {self.op} {self.ratio}x {base}"
        return f"{value} {self.op} {self.fence_k}-sigma quantile fence"

    def to_dict(self) -> dict:
        return {
            field.name: getattr(self, field.name) for field in fields(self)
        }

    @classmethod
    def from_dict(cls, document: dict) -> AlertRule:
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(document) - known)
        if unknown:
            raise ConfigurationError(
                f"alert rule document has unknown key(s): {', '.join(unknown)}"
            )
        return cls(**document)


@dataclass(frozen=True)
class SloTarget:
    """An error-budget objective over a metric's tick windows.

    A window is *bad* when its reduced value is ``op`` ``threshold``;
    the budget burn after the k-th window is
    ``(bad_windows / k) / objective``, and the target fires whenever the
    burn exceeds ``burn_threshold`` (1.0 = burning exactly at budget).
    """

    name: str
    metric: str
    threshold: float
    reduce: str = "mean"
    op: str = "above"
    objective: float = 0.01
    burn_threshold: float = 1.0
    severity: str = "critical"

    def __post_init__(self):
        _check_name(self.name)
        _check_metric(self.metric)
        if self.reduce not in REDUCERS:
            raise ConfigurationError(
                f"slo {self.name!r}: unknown reducer {self.reduce!r}"
            )
        if self.op not in OPS:
            raise ConfigurationError(
                f"slo {self.name!r}: unknown op {self.op!r}"
            )
        if self.severity not in SEVERITIES:
            raise ConfigurationError(
                f"slo {self.name!r}: unknown severity {self.severity!r}"
            )
        _check_finite(
            f"slo {self.name!r}", self, ("threshold", "objective", "burn_threshold")
        )
        if not 0.0 < self.objective <= 1.0:
            raise ConfigurationError(
                f"slo {self.name!r}: objective must be in (0, 1], "
                f"got {self.objective}"
            )
        if self.burn_threshold <= 0.0:
            raise ConfigurationError(
                f"slo {self.name!r}: burn_threshold must be > 0, "
                f"got {self.burn_threshold}"
            )

    def describe(self) -> str:
        return (
            f"bad window: {self.reduce}({self.metric}) {self.op} "
            f"{self.threshold}; budget {self.objective:g}, "
            f"burn limit {self.burn_threshold:g}x"
        )

    def to_dict(self) -> dict:
        return {
            field.name: getattr(self, field.name) for field in fields(self)
        }

    @classmethod
    def from_dict(cls, document: dict) -> SloTarget:
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(document) - known)
        if unknown:
            raise ConfigurationError(
                f"slo document has unknown key(s): {', '.join(unknown)}"
            )
        return cls(**document)


def _load_pack(path, schema: str, key: str) -> list[dict]:
    source = Path(path)
    try:
        document = json.loads(source.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise ConfigurationError(
            f"unreadable rule pack {source}: {error}"
        ) from error
    if document.get("schema") != schema:
        raise ConfigurationError(
            f"{source}: expected schema {schema!r}, "
            f"got {document.get('schema')!r}"
        )
    entries = document.get(key)
    if not isinstance(entries, list):
        raise ConfigurationError(f"{source}: missing {key!r} list")
    return entries


def _check_unique_names(items) -> None:
    seen = set()
    for item in items:
        if item.name in seen:
            raise ConfigurationError(f"duplicate rule name {item.name!r}")
        seen.add(item.name)


def load_rule_pack(path) -> tuple[AlertRule, ...]:
    """Load an ``alert_rules/v1`` JSON pack."""
    rules = tuple(
        AlertRule.from_dict(entry)
        for entry in _load_pack(path, RULE_PACK_SCHEMA, "rules")
    )
    _check_unique_names(rules)
    return rules


def load_slo_pack(path) -> tuple[SloTarget, ...]:
    """Load an ``slo/v1`` JSON pack."""
    slos = tuple(
        SloTarget.from_dict(entry)
        for entry in _load_pack(path, SLO_PACK_SCHEMA, "slos")
    )
    _check_unique_names(slos)
    return slos


def default_rule_pack() -> tuple[AlertRule, ...]:
    """The shipped fleet-characterization rule pack.

    Fences a healthy seeded fleet from the paper's side: tuned chips must
    stay above the slow-silicon floor, never tune below baseline, and
    stress-test rollbacks must stay shallow.  Thresholds carry wide
    margins so the self-clean CI smoke (zero firings on a seeded run)
    holds on any healthy configuration.
    """
    return (
        AlertRule(
            name="fleet-tuned-floor",
            kind="threshold",
            metric="fleet.tuned_slowest_mhz",
            reduce="min",
            op="below",
            threshold=3600.0,
            severity="critical",
        ),
        AlertRule(
            name="fleet-tuning-loss",
            kind="threshold",
            metric="fleet.tuning_gain_mhz",
            reduce="min",
            op="below",
            # The tuned slowest core can dip ~1 MHz below baseline on a
            # healthy chip (per-core trade-offs); -25 MHz is a real loss.
            threshold=-25.0,
            severity="critical",
        ),
        AlertRule(
            name="fleet-rollback-burst",
            kind="threshold",
            metric="fleet.ubench_rollback_steps",
            reduce="max",
            op="above",
            threshold=12.0,
            severity="warning",
        ),
        AlertRule(
            name="fleet-probe-cost-drift",
            kind="ratio_vs_baseline",
            metric="fleet.probe_runs",
            reduce="mean",
            op="above",
            ratio=3.0,
            min_delta=8.0,
            severity="warning",
        ),
        AlertRule(
            name="fleet-slow-outlier",
            kind="quantile_fence",
            metric="fleet.tuned_slowest_mhz",
            reduce="min",
            op="below",
            fence_k=4.0,
            min_delta=40.0,
            severity="info",
        ),
    )
