"""First-divergence diffing of event streams and run manifests.

The repo's correctness contract is "same seed ⇒ byte-identical events and
manifests".  When that contract breaks, a raw byte compare says *that* two
streams differ but not *where* or *why*.  This module answers both:

* :func:`diff_streams` walks two event streams in lockstep and reports
  the first diverging ``seq`` with an event-type and field-level delta
  plus the shared context window leading up to it;
* :func:`diff_manifests` compares two run manifests and classifies the
  mismatch into a drift taxonomy — ``schema`` / ``experiment`` / ``seed``
  / ``fingerprint`` / ``stream`` / ``result`` / ``metrics`` /
  ``platform`` — so a failing golden test says "the limit table was
  retuned", not "bytes differ".

Streams are loaded tolerantly (a truncated final line from a crashed run
is skipped and counted, see
:func:`repro.obs.sinks.read_jsonl_documents`).  All rendering is
deterministic: labels default to file *names*, never absolute paths.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from ...errors import ConfigurationError
from ..manifest import RunManifest, load_manifest
from ..sinks import read_jsonl_documents

#: Drift kinds in classification priority order: the first present kind is
#: the mismatch's primary explanation (a different seed *implies* a
#: different stream; reporting "stream drift" for it would bury the cause).
DRIFT_PRIORITY = (
    "schema",
    "experiment",
    "seed",
    "fingerprint",
    "stream",
    "result",
    "metrics",
    "platform",
)

#: Shared events shown before the divergence point by default.
DEFAULT_CONTEXT = 3

_END_OF_STREAM = "(end of stream)"


def canonical_line(document: dict) -> str:
    """Canonical single-line JSON of an event document (sorted keys)."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class FieldDelta:
    """One differing field at the divergence point."""

    name: str
    left: object
    right: object

    def render(self) -> str:
        return f"{self.name}: {self.left!r} != {self.right!r}"


@dataclass(frozen=True)
class Divergence:
    """Where and how two event streams first disagree."""

    #: 0-based position in the stream (equals ``seq`` for intact streams).
    index: int
    #: ``seq`` of the diverging event (left's when present, else right's).
    seq: int | None
    #: "field_delta" | "type_mismatch" | "left_ended" | "right_ended"
    kind: str
    left_type: str
    right_type: str
    field_deltas: tuple[FieldDelta, ...]
    #: Canonical lines of the shared events immediately before.
    context: tuple[str, ...]
    left_line: str
    right_line: str


@dataclass(frozen=True)
class StreamDiff:
    """Outcome of diffing two event streams."""

    left_label: str
    right_label: str
    left_count: int
    right_count: int
    left_skipped: int
    right_skipped: int
    divergence: Divergence | None

    @property
    def identical(self) -> bool:
        """True when every event (and the stream lengths) matched."""
        return self.divergence is None

    def render(self) -> str:
        """Human-readable report (deterministic; no paths beyond labels)."""
        lines = [f"stream diff: {self.left_label} vs {self.right_label}"]
        for side, count, skipped in (
            ("left ", self.left_count, self.left_skipped),
            ("right", self.right_count, self.right_skipped),
        ):
            note = f" ({skipped} truncated line(s) skipped)" if skipped else ""
            lines.append(f"  {side}: {count} event(s){note}")
        if self.divergence is None:
            lines.append("  identical: no divergence")
            return "\n".join(lines)
        div = self.divergence
        seq_text = "?" if div.seq is None else str(div.seq)
        lines.append(
            f"  first divergence at seq {seq_text} "
            f"(index {div.index}, {div.kind})"
        )
        if div.context:
            lines.append(f"  shared context ({len(div.context)} event(s) before):")
            lines.extend(f"    {line}" for line in div.context)
        lines.append(f"  left : {div.left_line}")
        lines.append(f"  right: {div.right_line}")
        if div.kind == "type_mismatch":
            lines.append(
                f"  delta: event type {div.left_type} != {div.right_type}"
            )
        for delta in div.field_deltas:
            lines.append(f"  delta: {div.left_type}.{delta.render()}")
        return "\n".join(lines)


def diff_documents(
    left_docs: Sequence[dict],
    right_docs: Sequence[dict],
    *,
    context: int = DEFAULT_CONTEXT,
    left_label: str = "left",
    right_label: str = "right",
    left_skipped: int = 0,
    right_skipped: int = 0,
) -> StreamDiff:
    """Diff two in-memory event-document sequences (first divergence only)."""
    if context < 0:
        raise ConfigurationError(f"context must be >= 0, got {context}")
    shared = min(len(left_docs), len(right_docs))
    divergence = None
    for index in range(shared):
        left_doc, right_doc = left_docs[index], right_docs[index]
        if left_doc == right_doc:
            continue
        divergence = _describe_pair(
            index, left_doc, right_doc, left_docs[max(0, index - context):index]
        )
        break
    if divergence is None and len(left_docs) != len(right_docs):
        index = shared
        longer = left_docs if len(left_docs) > len(right_docs) else right_docs
        surviving = longer[index]
        kind = "left_ended" if len(left_docs) < len(right_docs) else "right_ended"
        divergence = Divergence(
            index=index,
            seq=_seq_of(surviving),
            kind=kind,
            left_type=(
                _END_OF_STREAM if kind == "left_ended" else _type_of(surviving)
            ),
            right_type=(
                _type_of(surviving) if kind == "left_ended" else _END_OF_STREAM
            ),
            field_deltas=(),
            context=tuple(
                canonical_line(doc)
                for doc in left_docs[max(0, index - context):index]
            ),
            left_line=(
                _END_OF_STREAM
                if kind == "left_ended"
                else canonical_line(surviving)
            ),
            right_line=(
                canonical_line(surviving)
                if kind == "left_ended"
                else _END_OF_STREAM
            ),
        )
    return StreamDiff(
        left_label=left_label,
        right_label=right_label,
        left_count=len(left_docs),
        right_count=len(right_docs),
        left_skipped=left_skipped,
        right_skipped=right_skipped,
        divergence=divergence,
    )


def _type_of(document: dict) -> str:
    return str(document.get("type", "(untyped)"))


def _seq_of(document: dict) -> int | None:
    seq = document.get("seq")
    return seq if isinstance(seq, int) else None


def _describe_pair(
    index: int, left_doc: dict, right_doc: dict, context_docs: Sequence[dict]
) -> Divergence:
    left_type, right_type = _type_of(left_doc), _type_of(right_doc)
    kind = "type_mismatch" if left_type != right_type else "field_delta"
    deltas = tuple(
        FieldDelta(name=key, left=left_doc.get(key), right=right_doc.get(key))
        for key in sorted(set(left_doc) | set(right_doc))
        if left_doc.get(key) != right_doc.get(key)
    )
    seq = _seq_of(left_doc)
    if seq is None:
        seq = _seq_of(right_doc)
    return Divergence(
        index=index,
        seq=seq,
        kind=kind,
        left_type=left_type,
        right_type=right_type,
        field_deltas=deltas,
        context=tuple(canonical_line(doc) for doc in context_docs),
        left_line=canonical_line(left_doc),
        right_line=canonical_line(right_doc),
    )


def diff_streams(
    left_path: str | Path,
    right_path: str | Path,
    *,
    context: int = DEFAULT_CONTEXT,
) -> StreamDiff:
    """Diff two JSONL event streams on disk (tolerant loading)."""
    left_docs, left_skipped = read_jsonl_documents(left_path, tolerant=True)
    right_docs, right_skipped = read_jsonl_documents(right_path, tolerant=True)
    return diff_documents(
        left_docs,
        right_docs,
        context=context,
        left_label=Path(left_path).name,
        right_label=Path(right_path).name,
        left_skipped=left_skipped,
        right_skipped=right_skipped,
    )


@dataclass(frozen=True)
class ManifestDiff:
    """Classified mismatch between two run manifests."""

    left_label: str
    right_label: str
    #: Present drift kinds, in :data:`DRIFT_PRIORITY` order.
    drifts: tuple[str, ...]
    details: tuple[str, ...]

    @property
    def identical(self) -> bool:
        return not self.drifts

    @property
    def primary(self) -> str:
        """The highest-priority drift kind ("identical" when none)."""
        return self.drifts[0] if self.drifts else "identical"

    def render(self) -> str:
        lines = [f"manifest diff: {self.left_label} vs {self.right_label}"]
        if not self.drifts:
            lines.append("  identical: no drift")
            return "\n".join(lines)
        lines.append(
            f"  drift: {', '.join(self.drifts)} (primary: {self.primary})"
        )
        lines.extend(f"  {detail}" for detail in self.details)
        return "\n".join(lines)


def _manifest_document(source: RunManifest | dict | str | Path) -> tuple[dict, str]:
    """Normalize a manifest argument to ``(document, label)``."""
    if isinstance(source, RunManifest):
        return source.to_dict(), source.experiment_id
    if isinstance(source, dict):
        return source, str(source.get("experiment_id", "(manifest)"))
    path = Path(source)
    # load_manifest validates shape; re-serialize so raw documents from
    # older schemas still classify on the fields this library reads.
    return load_manifest(path).to_dict(), path.name


def _abbreviate(value: object) -> str:
    text = str(value)
    return text[:16] + "…" if len(text) > 17 else text


def diff_manifests(
    left: RunManifest | dict | str | Path,
    right: RunManifest | dict | str | Path,
) -> ManifestDiff:
    """Compare two manifests and classify every differing dimension."""
    left_doc, left_label = _manifest_document(left)
    right_doc, right_label = _manifest_document(right)

    checks: dict[str, tuple[object, object]] = {
        "schema": (left_doc.get("schema"), right_doc.get("schema")),
        "experiment": (
            left_doc.get("experiment_id"),
            right_doc.get("experiment_id"),
        ),
        "seed": (left_doc.get("seed"), right_doc.get("seed")),
        "fingerprint": (
            left_doc.get("limits_fingerprint"),
            right_doc.get("limits_fingerprint"),
        ),
        "result": (left_doc.get("result_metrics"), right_doc.get("result_metrics")),
        "metrics": (
            left_doc.get("metrics_summary"),
            right_doc.get("metrics_summary"),
        ),
        "platform": (left_doc.get("platform"), right_doc.get("platform")),
    }
    drifts = []
    details = []
    for kind in DRIFT_PRIORITY:
        if kind == "stream":
            count_pair = (left_doc.get("event_count"), right_doc.get("event_count"))
            sha_pair = (left_doc.get("events_sha256"), right_doc.get("events_sha256"))
            if count_pair[0] != count_pair[1] or sha_pair[0] != sha_pair[1]:
                drifts.append("stream")
                if count_pair[0] != count_pair[1]:
                    details.append(
                        f"stream: event_count {count_pair[0]} != {count_pair[1]}"
                    )
                if sha_pair[0] != sha_pair[1]:
                    details.append(
                        f"stream: events_sha256 {_abbreviate(sha_pair[0])} != "
                        f"{_abbreviate(sha_pair[1])}"
                    )
            continue
        left_value, right_value = checks[kind]
        if left_value != right_value:
            drifts.append(kind)
            if kind in ("result", "metrics"):
                keys = sorted(
                    key
                    for key in set(left_value or {}) | set(right_value or {})
                    if (left_value or {}).get(key) != (right_value or {}).get(key)
                )
                details.append(f"{kind}: {len(keys)} differing key(s): "
                               + ", ".join(keys[:8])
                               + ("…" if len(keys) > 8 else ""))
            else:
                details.append(
                    f"{kind}: {_abbreviate(left_value)} != {_abbreviate(right_value)}"
                )
    return ManifestDiff(
        left_label=left_label,
        right_label=right_label,
        drifts=tuple(drifts),
        details=tuple(details),
    )
