"""Prometheus/OpenMetrics text exposition of summaries and tsdb series.

:func:`render_openmetrics` turns a metrics summary and/or a
:class:`~repro.obs.tsdb.series.Tsdb` into the OpenMetrics text format —
``# TYPE`` metadata lines, one sample per line, ``# EOF`` terminator —
so any Prometheus-compatible scraper or ``promtool`` can consume a run's
telemetry.  The page is a pure function of its inputs (sorted metric
names, sorted labels, ``repr``-round-trippable float rendering), so the
determinism contract extends to the exposition layer: same seed ⇒
byte-identical pages.

:func:`parse_openmetrics` is the matching reader, used by the round-trip
gate in ``tools/check.sh``.
"""

from __future__ import annotations

import re

from ...errors import ConfigurationError
from .series import Tsdb

_NAME_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')
_UNESCAPE_RE = re.compile(r"\\(.)")

#: Summary-entry stats exposed per instrument kind.
_GAUGE_STATS = ("samples", "min", "max", "mean", "p50", "p95", "p99")
_HISTOGRAM_STATS = ("count", "mean", "p50", "p95", "p99")
_WINDOW_STATS = ("count", "min", "max", "mean", "sum")


def openmetrics_name(metric: str) -> str:
    """Map a dotted metric name onto the OpenMetrics name grammar."""
    name = _NAME_SANITIZE_RE.sub("_", metric)
    if not name or name[0].isdigit():
        name = "_" + name
    return name


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels_text(labels: dict) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{key}="{_escape_label(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _value_text(value) -> str:
    # repr() of a float round-trips exactly through float(), keeping the
    # page diffable *and* parseable without precision loss.
    return repr(float(value))


def render_openmetrics(
    *, summary: dict | None = None, tsdb: Tsdb | None = None, labels=None
) -> str:
    """Render a metrics summary and/or tsdb as an OpenMetrics text page.

    Summary counters become ``<name>_total`` counter families; summary
    gauges/histograms become ``stat``-labeled gauge families.  Tsdb
    series become ``<name>_window`` gauge families with ``window`` and
    ``stat`` labels, so per-window and whole-run views never collide.
    """
    base = dict(labels or {})
    lines: list[str] = []
    for name in sorted(summary or ()):
        entry = summary[name]
        kind = entry.get("kind")
        exposed = openmetrics_name(name)
        if kind == "counter":
            lines.append(f"# TYPE {exposed} counter")
            lines.append(
                f"{exposed}_total{_labels_text(base)} "
                f"{_value_text(entry['value'])}"
            )
        elif kind == "gauge":
            lines.append(f"# TYPE {exposed} gauge")
            for stat in _GAUGE_STATS:
                if stat in entry:
                    lines.append(
                        f"{exposed}{_labels_text({**base, 'stat': stat})} "
                        f"{_value_text(entry[stat])}"
                    )
        elif kind == "histogram":
            lines.append(f"# TYPE {exposed} gauge")
            for stat in _HISTOGRAM_STATS:
                if stat in entry:
                    lines.append(
                        f"{exposed}{_labels_text({**base, 'stat': stat})} "
                        f"{_value_text(entry[stat])}"
                    )
        else:
            raise ConfigurationError(
                f"summary entry {name!r} has unknown kind {kind!r}"
            )
    if tsdb is not None:
        for metric in tsdb.metrics():
            exposed = openmetrics_name(metric) + "_window"
            lines.append(f"# TYPE {exposed} gauge")
            for window in tsdb.series(metric).windows():
                window_label = str(int(window["window"]))
                for stat in _WINDOW_STATS:
                    window_labels = {
                        **base,
                        "window": window_label,
                        "stat": stat,
                    }
                    lines.append(
                        f"{exposed}{_labels_text(window_labels)} "
                        f"{_value_text(window[stat])}"
                    )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _unescape_label(raw: str) -> str:
    return _UNESCAPE_RE.sub(
        lambda match: {"n": "\n"}.get(match.group(1), match.group(1)), raw
    )


def parse_openmetrics(text: str) -> dict:  # repro-lint: disable=RL012 -- oracle: tests/obs/test_openmetrics.py, tools/check.sh
    """Parse an OpenMetrics text page.

    Returns ``{"types": {family: type}, "samples": [{"name", "labels",
    "value"}, ...]}``.  Raises :class:`ConfigurationError` on malformed
    sample lines, unparseable values, content after the terminator, or a
    missing ``# EOF``.
    """
    types: dict[str, str] = {}
    samples: list[dict] = []
    saw_eof = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if saw_eof:
            raise ConfigurationError(
                f"line {lineno}: content after the # EOF terminator"
            )
        if line.strip() == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                raise ConfigurationError(
                    f"line {lineno}: malformed TYPE line {line!r}"
                )
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ConfigurationError(
                f"line {lineno}: malformed sample line {line!r}"
            )
        labels = {
            key: _unescape_label(raw)
            for key, raw in _LABEL_RE.findall(match.group("labels") or "")
        }
        try:
            value = float(match.group("value"))
        except ValueError as error:
            raise ConfigurationError(
                f"line {lineno}: unparseable sample value "
                f"{match.group('value')!r}"
            ) from error
        samples.append(
            {"name": match.group("name"), "labels": labels, "value": value}
        )
    if not saw_eof:
        raise ConfigurationError("page is missing the # EOF terminator")
    return {"types": types, "samples": samples}
