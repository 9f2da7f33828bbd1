"""Deterministic alert evaluation over tsdb tick windows.

:func:`evaluate_rules` is a pure function of ``(tsdb, rules, slos)``:
windows are visited in tick order, firings are sorted on
``(window, rule)``, incidents are maximal runs of consecutively-firing
evaluated windows, and sequence numbers are dense evaluation-order
indices.  The result is an :class:`AlertOutcome` whose canonical JSON,
event stream, and rendered digest are all byte-stable — alerts replay
and golden-test exactly like every other event in the registry.

A metric a rule references but the tsdb never recorded is reported in
``missing_metrics`` (and rendered as a warning), never raised: absence
of telemetry is a finding, not a crash.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from ...analysis.rendering import ascii_table
from ...errors import ConfigurationError
from ..events import AlertEvent, IncidentEvent, ObsEvent, event_to_dict
from ..sinks import event_to_json_line
from ..stream.gates import exceeds_ratio_gate, quantile_fence
from ..tsdb.series import Tsdb
from .rules import SLO_KIND, AlertRule, SloTarget

#: Canonical alert-outcome document schema revision.
OUTCOME_SCHEMA = 1


@dataclass(frozen=True)
class RuleEvaluation:
    """Digest row: one rule's coverage and firing count."""

    name: str
    kind: str
    metric: str
    severity: str
    windows: int
    fired: int


@dataclass(frozen=True)
class _Firing:
    """One window that tripped a rule (pre-event intermediate)."""

    rule: str
    kind: str
    metric: str
    severity: str
    op: str
    window: int
    position: int  # index into the rule's evaluated-window list
    start_tick: float
    value: float
    threshold: float


@dataclass(frozen=True)
class AlertOutcome:
    """Everything one deterministic evaluation pass produced."""

    experiment: str
    seed: int
    window_ticks: float
    evaluations: tuple[RuleEvaluation, ...]
    events: tuple[ObsEvent, ...]
    missing_metrics: tuple[str, ...]
    skipped_lines: int

    @property
    def alerts(self) -> tuple[AlertEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, AlertEvent))

    @property
    def incidents(self) -> tuple[IncidentEvent, ...]:
        return tuple(e for e in self.events if isinstance(e, IncidentEvent))

    @property
    def fired(self) -> bool:
        return any(isinstance(e, AlertEvent) for e in self.events)

    def to_dict(self) -> dict:
        return {
            "kind": "alert_outcome",
            "schema": OUTCOME_SCHEMA,
            "experiment": self.experiment,
            "seed": self.seed,
            "window_ticks": self.window_ticks,
            "evaluations": [
                {
                    "name": ev.name,
                    "kind": ev.kind,
                    "metric": ev.metric,
                    "severity": ev.severity,
                    "windows": ev.windows,
                    "fired": ev.fired,
                }
                for ev in self.evaluations
            ],
            "events": [event_to_dict(event) for event in self.events],
            "missing_metrics": list(self.missing_metrics),
            "skipped_lines": self.skipped_lines,
        }

    def to_json(self) -> str:
        """Canonical JSON document (sorted keys, trailing newline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def write_events(self, path) -> Path:
        """Write the alert/incident events as a standard JSONL stream."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(
            "".join(
                event_to_json_line(event) + "\n" for event in self.events
            ),
            encoding="utf-8",
        )
        return target

    def render(self) -> str:
        """Human digest: per-rule table, incident timeline, summary."""
        lines = [
            f"alert evaluation: {self.experiment}@s{self.seed}, "
            f"window {self.window_ticks:g} ticks"
        ]
        if self.evaluations:
            rows = [
                (ev.name, ev.kind, ev.metric, ev.severity, ev.windows, ev.fired)
                for ev in self.evaluations
            ]
            lines.append(
                ascii_table(
                    ("rule", "kind", "metric", "severity", "windows", "fired"),
                    rows,
                )
            )
        incidents = self.incidents
        if incidents:
            lines.append("incidents:")
            # Incident events come in adjacent (open, close) pairs.
            for opened, closed in zip(incidents[::2], incidents[1::2]):
                lines.append(
                    f"  {closed.rule} [{closed.severity}] "
                    f"{closed.metric}: windows "
                    f"{opened.window}..{closed.window} "
                    f"({closed.windows_active} active), worst "
                    f"{closed.worst_value:g} vs {closed.threshold:g}"
                )
        for metric in self.missing_metrics:
            lines.append(f"warning: no series for metric {metric!r}")
        if self.skipped_lines:
            lines.append(
                f"warning: {self.skipped_lines} truncated stream line(s) "
                "skipped during ingest"
            )
        lines.append(
            f"{len(self.alerts)} alert window(s), "
            f"{len(incidents) // 2} incident(s)"
        )
        return "\n".join(lines)


def _reduced(window: dict, reduce: str) -> float:
    return float(window[reduce])


def _trips(value: float, bound: float, op: str) -> bool:
    return value > bound if op == "above" else value < bound


def _rule_firings(
    rule: AlertRule, windows: list[dict]
) -> list[_Firing]:
    reduced = [_reduced(window, rule.reduce) for window in windows]
    bounds: list[float]
    if rule.kind == "threshold":
        bounds = [rule.threshold] * len(windows)
        fired = [_trips(value, rule.threshold, rule.op) for value in reduced]
    elif rule.kind == "ratio_vs_baseline":
        baseline = (
            rule.baseline if rule.baseline is not None else reduced[0]
        )
        if rule.op == "above":
            bounds = [baseline * rule.ratio] * len(windows)
            fired = [
                exceeds_ratio_gate(
                    value,
                    baseline,
                    threshold=rule.ratio,
                    min_delta=rule.min_delta,
                )
                for value in reduced
            ]
        else:
            bounds = [baseline / rule.ratio] * len(windows)
            fired = [
                exceeds_ratio_gate(
                    baseline,
                    value,
                    threshold=rule.ratio,
                    min_delta=rule.min_delta,
                )
                for value in reduced
            ]
    else:  # quantile_fence
        fence = quantile_fence(
            Counter(reduced), k=rule.fence_k, op=rule.op, floor=rule.min_delta
        )
        bounds = [fence] * len(windows)
        fired = [_trips(value, fence, rule.op) for value in reduced]
    return [
        _Firing(
            rule=rule.name,
            kind=rule.kind,
            metric=rule.metric,
            severity=rule.severity,
            op=rule.op,
            window=int(window["window"]),
            position=position,
            start_tick=float(window["start_tick"]),
            value=value,
            threshold=bound,
        )
        for position, (window, value, bound, hit) in enumerate(
            zip(windows, reduced, bounds, fired)
        )
        if hit
    ]


def _slo_firings(slo: SloTarget, windows: list[dict]) -> list[_Firing]:
    firings = []
    bad_windows = 0
    for position, window in enumerate(windows):
        value = _reduced(window, slo.reduce)
        if _trips(value, slo.threshold, slo.op):
            bad_windows += 1
        burn = (bad_windows / (position + 1)) / slo.objective
        if burn > slo.burn_threshold:
            firings.append(
                _Firing(
                    rule=slo.name,
                    kind=SLO_KIND,
                    metric=slo.metric,
                    severity=slo.severity,
                    op="above",
                    window=int(window["window"]),
                    position=position,
                    start_tick=float(window["start_tick"]),
                    value=burn,
                    threshold=slo.burn_threshold,
                )
            )
    return firings


def _incident_runs(firings: list[_Firing]) -> list[list[_Firing]]:
    """Maximal runs of consecutively-evaluated firing windows."""
    runs: list[list[_Firing]] = []
    for firing in sorted(firings, key=lambda f: f.position):
        if runs and firing.position == runs[-1][-1].position + 1:
            runs[-1].append(firing)
        else:
            runs.append([firing])
    return runs


def evaluate_rules(
    tsdb: Tsdb,
    rules=(),
    slos=(),
    *,
    skipped_lines: int = 0,
) -> AlertOutcome:
    """Evaluate alert rules and SLO targets over a tsdb.

    Pure and deterministic: the outcome (events, sequence numbers,
    canonical JSON) is a function of the inputs only.  ``skipped_lines``
    threads the tolerant-ingest warning count through to the digest.
    """
    rules = tuple(rules)
    slos = tuple(slos)
    names = [item.name for item in (*rules, *slos)]
    if len(names) != len(set(names)):
        raise ConfigurationError(
            "alert rules and SLO targets must have unique names"
        )
    if not rules and not slos:
        raise ConfigurationError("nothing to evaluate: no rules and no slos")

    evaluations = []
    all_firings: list[_Firing] = []
    incident_runs: list[list[_Firing]] = []
    missing: list[str] = []
    for item in sorted((*rules, *slos), key=lambda item: item.name):
        is_slo = isinstance(item, SloTarget)
        kind = SLO_KIND if is_slo else item.kind
        if item.metric not in tsdb:
            missing.append(item.metric)
            evaluations.append(
                RuleEvaluation(
                    name=item.name,
                    kind=kind,
                    metric=item.metric,
                    severity=item.severity,
                    windows=0,
                    fired=0,
                )
            )
            continue
        windows = tsdb.series(item.metric).windows()
        firings = (
            _slo_firings(item, windows)
            if is_slo
            else _rule_firings(item, windows)
        )
        evaluations.append(
            RuleEvaluation(
                name=item.name,
                kind=kind,
                metric=item.metric,
                severity=item.severity,
                windows=len(windows),
                fired=len(firings),
            )
        )
        all_firings.extend(firings)
        incident_runs.extend(_incident_runs(firings))

    events: list[ObsEvent] = []
    for firing in sorted(all_firings, key=lambda f: (f.window, f.rule)):
        events.append(
            AlertEvent(
                seq=len(events),
                rule=firing.rule,
                kind=firing.kind,
                metric=firing.metric,
                severity=firing.severity,
                window=firing.window,
                start_tick=firing.start_tick,
                value=firing.value,
                threshold=firing.threshold,
            )
        )
    for run in sorted(incident_runs, key=lambda r: (r[0].window, r[0].rule)):
        first = run[0]
        values = [firing.value for firing in run]
        worst = min(values) if first.op == "below" else max(values)
        for action, edge in (("open", first), ("close", run[-1])):
            events.append(
                IncidentEvent(
                    seq=len(events),
                    rule=edge.rule,
                    metric=edge.metric,
                    severity=edge.severity,
                    action=action,
                    window=edge.window,
                    windows_active=len(run),
                    worst_value=worst,
                    threshold=first.threshold,
                )
            )

    return AlertOutcome(
        experiment=tsdb.experiment,
        seed=tsdb.seed,
        window_ticks=tsdb.window_ticks,
        evaluations=tuple(evaluations),
        events=tuple(events),
        missing_metrics=tuple(sorted(set(missing))),
        skipped_lines=int(skipped_lines),
    )
