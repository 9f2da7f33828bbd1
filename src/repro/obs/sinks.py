"""Event sinks: where emitted events go.

A sink consumes :class:`~repro.obs.events.ObsEvent` objects.  Two concrete
sinks ship:

* :class:`RingBufferSink` — bounded in-memory buffer, for tests and for
  interactive inspection without touching disk;
* :class:`JsonlFileSink` — one canonical JSON object per line.  The
  serialization is deterministic (sorted keys, no timestamps), so two runs
  with the same seed produce byte-identical files.  Lines come from
  :func:`event_to_json_line`, a per-event-class codec that writes exactly
  what ``json.dumps`` would.

``read_jsonl`` is the inverse of the file sink and powers ``repro trace``.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from collections.abc import Callable, Iterator
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import itemgetter
from pathlib import Path

from ..errors import ConfigurationError
from .events import ObsEvent, event_from_dict, event_to_dict


class EventSink:
    """Consumer interface for emitted events."""

    #: Whether the runtime should construct and deliver events at all.
    #: Metrics-only sinks (:class:`NullSink`) opt out, and instrumentation
    #: sites skip event construction entirely — the streaming-telemetry
    #: mode's obs overhead is metric folds, not dead event objects.
    wants_events: bool = True

    def emit(self, event: ObsEvent) -> None:
        """Consume one event."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release resources; emitting afterwards is an error."""


class RingBufferSink(EventSink):
    """Keeps the last ``capacity`` events in memory."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._buffer: deque[ObsEvent] = deque(maxlen=capacity)
        self._total = 0

    @property
    def total_emitted(self) -> int:
        """Events ever emitted, including those the ring has dropped."""
        return self._total

    def emit(self, event: ObsEvent) -> None:
        self._buffer.append(event)
        self._total += 1

    def events(self, event_type: type[ObsEvent] | None = None) -> list[ObsEvent]:
        """Buffered events in emission order, optionally filtered by type."""
        if event_type is None:
            return list(self._buffer)
        return [e for e in self._buffer if isinstance(e, event_type)]

    def __len__(self) -> int:
        return len(self._buffer)


class NullSink(EventSink):
    """Metrics-only observability: declines events before they exist.

    Installed in process-pool workers and the obs-overhead bench
    (``repro fleet characterize --jobs N``): instruments still fold into
    mergeable summaries, but per-event streams are not captured — worker
    scheduling would otherwise interleave them nondeterministically.
    ``wants_events`` is False, so the runtime suppresses events at the
    *construction site* (``emit`` only counts events pushed directly).
    """

    wants_events = False

    def __init__(self):
        self._count = 0

    @property
    def count(self) -> int:
        """Events discarded so far (direct pushes only)."""
        return self._count

    def emit(self, event: ObsEvent) -> None:
        self._count += 1


#: The canonical line's definition, and the codec's fallback encoder:
#: ``json.dumps(event_to_dict(e), sort_keys=True, separators=(",", ":"))``.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

#: Most distinct strings the literal memo keeps.  An experiment has a few
#: dozen (core labels, workload names, stages); a fleet stream has eight
#: new core labels per chip, so a full memo is cleared and refilled.
_STR_MEMO_LIMIT = 1024


class _StrLiterals(dict):
    """Bounded memo: ``str`` value → its JSON literal."""

    def __missing__(self, value: str) -> str:
        literal = encode_basestring_ascii(value)
        if len(self) >= _STR_MEMO_LIMIT:
            self.clear()
        self[value] = literal
        return literal


def _float_literal(value: float) -> str:
    """``value`` as ``json`` writes it: its repr, or NaN/Infinity/-Infinity."""
    if isfinite(value):
        return repr(value)
    if value != value:
        return "NaN"
    return "Infinity" if value > 0.0 else "-Infinity"


#: Exact value type → renderer of its JSON literal, byte-for-byte what the
#: ``json`` encoder writes for that type (``repr`` of an exact ``int`` is
#: ``int.__repr__``).  Any other type (a subclass such as ``np.float64``
#: or an ``IntEnum``, or a type ``json`` rejects) is not a key here, so
#: its event takes the fallback encoder.
_LITERALS = {
    str: _StrLiterals().__getitem__,
    int: repr,
    float: _float_literal,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _fallback_line(event: ObsEvent) -> str:
    return _CANONICAL.encode(event_to_dict(event))


def _line_encoder(cls: type[ObsEvent]) -> Callable[[ObsEvent], str]:
    """Build the canonical-line encoder for events of class ``cls``.

    The line is a ``%`` template with every ``"key":`` prefix and the
    ``"type"`` member pre-rendered in sorted key order, filled with one
    literal per declared field.  An instance whose ``__dict__`` is not
    exactly the declared fields, or that holds a value whose exact type
    has no renderer, is encoded by the fallback instead, so every line
    (and every serialization error) is the one ``json`` produces.
    """
    names = [field.name for field in dataclasses.fields(cls)]
    if "type" in names:  # event_to_dict's discriminator overwrites the field
        return _fallback_line
    keys = sorted([*names, "type"])
    # Field names are identifiers; only the class name may hold a "%".
    type_member = f'"type":{encode_basestring_ascii(cls.__name__)}'.replace("%", "%%")
    template = "{%s}" % ",".join(
        type_member if key == "type" else f"{encode_basestring_ascii(key)}:%s"
        for key in keys
    )
    ordered = [key for key in keys if key != "type"]
    size = len(ordered)
    # itemgetter returns a bare value, not a 1-tuple, for a single key.
    fields_of = itemgetter(*ordered) if size > 1 else lambda d: (d[ordered[0]],)

    def encode(event: ObsEvent) -> str:
        values = event.__dict__
        if len(values) == size:
            try:
                return template % tuple(
                    [_LITERALS[type(v)](v) for v in fields_of(values)]
                )
            except KeyError:  # a field is missing, or a value type has no renderer
                pass
        return _fallback_line(event)

    return encode


class _LineEncoders(dict):
    """Event class → its canonical-line encoder, built on first use."""

    def __missing__(self, cls: type[ObsEvent]) -> Callable[[ObsEvent], str]:
        encoder = self[cls] = _line_encoder(cls)
        return encoder


_ENCODERS = _LineEncoders()


def event_to_json_line(event: ObsEvent) -> str:
    """Canonical single-line JSON form of ``event`` (sorted keys).

    Byte-identical to ``json.dumps(event_to_dict(event), sort_keys=True,
    separators=(",", ":"))``, computed by a per-class codec (see
    :func:`_line_encoder`) that skips building an encoder, copying the
    instance dict and sorting its keys for every event.
    """
    return _ENCODERS[type(event)](event)


class JsonlFileSink(EventSink):
    """Writes one canonical JSON line per event to ``path``."""

    def __init__(self, path: str | Path):
        self._path = Path(path)
        try:
            self._handle = self._path.open("w", encoding="utf-8")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot open event sink {self._path}: {exc}"
            ) from exc
        self._count = 0
        self._closed = False

    @property
    def path(self) -> Path:
        return self._path

    @property
    def count(self) -> int:
        """Events written so far."""
        return self._count

    def emit(self, event: ObsEvent) -> None:
        if self._closed:
            raise ConfigurationError(f"sink {self._path} is closed")
        self._handle.write(event_to_json_line(event) + "\n")
        self._count += 1

    def close(self) -> None:
        if not self._closed:
            self._handle.close()
            self._closed = True


def read_jsonl(path: str | Path) -> Iterator[ObsEvent]:
    """Parse a JSONL event file back into typed events, in file order.

    Accepts segmented streams the same way :func:`read_jsonl_documents`
    does (a ``*.segments.json`` index, or a logical path whose index sits
    beside it).
    """
    source = Path(path)
    from .stream.rotate import is_segment_index, segment_index_path

    if is_segment_index(source) or (
        not source.exists() and segment_index_path(source).exists()
    ):
        documents, _ = read_jsonl_documents(source)
        for document in documents:
            yield event_from_dict(document)
        return
    if not source.exists():
        raise ConfigurationError(f"no event file at {source}")
    with source.open("r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                document = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{source}:{lineno}: not valid JSON: {exc}"
                ) from exc
            yield event_from_dict(document)


def read_jsonl_documents(
    path: str | Path, *, tolerant: bool = False
) -> tuple[list[dict], int]:
    """Parse a JSONL event stream into raw JSON documents.

    Returns ``(documents, skipped_lines)``.  With ``tolerant=True`` a
    malformed *final* line — the signature of a run that crashed mid-write
    — is skipped and counted instead of raising; malformed lines anywhere
    else always raise, because mid-stream corruption is never a clean
    truncation.  The analyze-layer loaders (diff engine, run store) use
    the tolerant mode so a crashed run can still be inspected.

    Segmented streams read transparently: passing a ``*.segments.json``
    index (or the logical path of a run that rotated, with the index
    sitting beside it) delegates to the segment reader, which applies the
    same tolerant-final-line rule to the final segment.
    """
    source = Path(path)
    # Local import: stream.rotate uses this module's line codec.
    from .stream.rotate import (
        is_segment_index,
        read_segmented_documents,
        segment_index_path,
    )

    if is_segment_index(source):
        return read_segmented_documents(source, tolerant=tolerant)
    if not source.exists():
        sibling_index = segment_index_path(source)
        if sibling_index.exists():
            return read_segmented_documents(sibling_index, tolerant=tolerant)
        raise ConfigurationError(f"no event file at {source}")
    payload = [
        (lineno, stripped)
        for lineno, raw in enumerate(
            source.read_text(encoding="utf-8").splitlines(), start=1
        )
        if (stripped := raw.strip())
    ]
    documents: list[dict] = []
    skipped = 0
    for position, (lineno, line) in enumerate(payload):
        try:
            documents.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if tolerant and position == len(payload) - 1:
                skipped += 1
                break
            raise ConfigurationError(
                f"{source}:{lineno}: not valid JSON: {exc}"
            ) from exc
    return documents, skipped
