"""Segmented JSONL event streams: the rotating sink and its readers.

A :class:`RotatingJsonlSink` writes the same canonical event lines as
:class:`~repro.obs.sinks.JsonlFileSink`, but rotates to a new segment
file every ``max_events_per_segment`` events, so no single file grows
unboundedly with run length.  For a logical stream path ``X`` it writes:

* ``X.seg0000``, ``X.seg0001``, … — the segment files, each a plain
  JSONL fragment (the concatenation of all segments is byte-identical to
  what the single-file sink would have written);
* ``X.segments.json`` — the segment index: per-segment event counts and
  ``sha256`` digests plus the combined ``events_sha256`` over the
  logical concatenation.

Because the combined digest equals the digest of the equivalent single
file, run manifests are byte-identical whether a run rotated or not, and
``RunStore.put`` can verify + compact a segmented run into its standard
single-file layout without touching the manifest.

Everything here is deterministic: rotation is keyed on the event count
(never on wall time or file size heuristics that could vary with JSON
float formatting platform quirks), and the index is canonical JSON.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ...errors import ConfigurationError
from ..events import ObsEvent
from ..sinks import EventSink, event_to_json_line

#: Segment index schema version (bump on incompatible shape changes).
SEGMENT_INDEX_SCHEMA = 1

#: Suffix identifying a segment-index file next to a logical stream path.
SEGMENT_INDEX_SUFFIX = ".segments.json"

#: Default rotation threshold, in events per segment.
DEFAULT_EVENTS_PER_SEGMENT = 8192


def segment_index_path(logical_path: str | Path) -> Path:
    """The index path for logical stream path ``X``: ``X.segments.json``."""
    logical = Path(logical_path)
    return logical.with_name(logical.name + SEGMENT_INDEX_SUFFIX)


def is_segment_index(path: str | Path) -> bool:
    """True when ``path`` names a segment index file."""
    return str(path).endswith(SEGMENT_INDEX_SUFFIX)


class RotatingJsonlSink(EventSink):
    """Event sink that segments the stream every N events."""

    def __init__(
        self,
        path: str | Path,
        *,
        max_events_per_segment: int = DEFAULT_EVENTS_PER_SEGMENT,
    ):
        if max_events_per_segment < 1:
            raise ConfigurationError(
                f"max_events_per_segment must be >= 1, got {max_events_per_segment}"
            )
        self._logical = Path(path)
        self._max_per_segment = max_events_per_segment
        self._segments: list[dict] = []
        self._combined = hashlib.sha256()
        self._count = 0
        self._closed = False
        self._handle = None
        self._segment_hash = hashlib.sha256()
        self._segment_count = 0
        self._open_segment()

    @property
    def path(self) -> Path:
        """The logical stream path (never created; segments sit beside it)."""
        return self._logical

    @property
    def index_path(self) -> Path:
        return segment_index_path(self._logical)

    @property
    def count(self) -> int:
        """Events written so far, across all segments."""
        return self._count

    @property
    def segment_count(self) -> int:
        """Segments started so far (including the one being written)."""
        return len(self._segments) + (1 if self._handle is not None else 0)

    def _segment_name(self, index: int) -> str:
        return f"{self._logical.name}.seg{index:04d}"

    def _open_segment(self) -> None:
        name = self._segment_name(len(self._segments))
        target = self._logical.with_name(name)
        try:
            self._handle = target.open("wb")
        except OSError as exc:
            raise ConfigurationError(
                f"cannot open event segment {target}: {exc}"
            ) from exc
        self._segment_hash = hashlib.sha256()
        self._segment_count = 0

    def _finish_segment(self) -> None:
        self._handle.close()
        self._segments.append(
            {
                "file": self._segment_name(len(self._segments)),
                "events": self._segment_count,
                "sha256": self._segment_hash.hexdigest(),
            }
        )
        self._handle = None

    def emit(self, event: ObsEvent) -> None:
        handle = self._handle
        if handle is None:
            raise ConfigurationError(
                f"sink {self._logical} is closed"
                if self._closed
                else f"sink {self._logical} has no open segment: "
                f"opening {self._segment_name(len(self._segments))} failed"
            )
        data = (event_to_json_line(event) + "\n").encode("utf-8")
        handle.write(data)
        self._segment_hash.update(data)
        self._combined.update(data)
        self._segment_count += 1
        self._count += 1
        if self._segment_count >= self._max_per_segment:
            self._finish_segment()
            self._open_segment()

    def close(self) -> None:
        """Finish the open segment, if any, and write the index.

        After a segment failed to open, the index covers the segments
        finished before it, which hold every event written.
        """
        if self._closed:
            return
        if self._handle is not None:
            self._finish_segment()
        index = {
            "kind": "jsonl_segments",
            "schema": SEGMENT_INDEX_SCHEMA,
            "stream": self._logical.name,
            "event_count": self._count,
            "events_sha256": self._combined.hexdigest(),
            "segments": self._segments,
        }
        self.index_path.write_text(
            json.dumps(index, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        self._closed = True


def load_segment_index(path: str | Path) -> dict:
    """Read + validate a segment index written by the rotating sink."""
    source = Path(path)
    if not source.exists():
        raise ConfigurationError(f"no segment index at {source}")
    try:
        document = json.loads(source.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{source} is not valid JSON: {exc}") from exc
    if document.get("kind") != "jsonl_segments":
        raise ConfigurationError(
            f"expected a jsonl_segments document, got {document.get('kind')!r}"
        )
    schema = document.get("schema")
    if not isinstance(schema, int) or schema > SEGMENT_INDEX_SCHEMA:
        raise ConfigurationError(
            f"unsupported segment index schema {schema!r} (this library reads "
            f"<= {SEGMENT_INDEX_SCHEMA})"
        )
    if not isinstance(document.get("segments"), list):
        raise ConfigurationError(f"malformed segment index {source}: no segments")
    return document


def iter_segment_paths(index_path: str | Path) -> list[tuple[Path, dict]]:
    """(path, entry) for each segment in index order, existence-checked."""
    source = Path(index_path)
    index = load_segment_index(source)
    out = []
    for entry in index["segments"]:
        segment = source.parent / str(entry["file"])
        if not segment.exists():
            raise ConfigurationError(
                f"segment index {source} references missing segment {segment}"
            )
        out.append((segment, entry))
    return out


def segmented_events_sha256(index_path: str | Path) -> tuple[str, int]:
    """(combined sha256, event count) of the logical stream, verified.

    Re-hashes every segment's bytes, checks each against its index entry,
    and returns the digest of the logical concatenation — which equals
    the digest of the equivalent single-file stream.
    """
    source = Path(index_path)
    index = load_segment_index(source)
    combined = hashlib.sha256()
    for segment, entry in iter_segment_paths(source):
        data = segment.read_bytes()
        actual = hashlib.sha256(data).hexdigest()
        if actual != str(entry["sha256"]):
            raise ConfigurationError(
                f"segment {segment} sha256 mismatch: index says "
                f"{entry['sha256']}, file hashes to {actual}"
            )
        combined.update(data)
    digest = combined.hexdigest()
    if digest != str(index["events_sha256"]):
        raise ConfigurationError(
            f"segment index {source} combined sha256 mismatch: index says "
            f"{index['events_sha256']}, segments hash to {digest}"
        )
    return digest, int(index["event_count"])


def compact_segments(index_path: str | Path, out_path: str | Path) -> Path:
    """Rewrite a segmented stream as one file, byte-identical to the
    logical concatenation (so ``events_sha256`` is unchanged)."""
    source = Path(index_path)
    target = Path(out_path)
    combined = hashlib.sha256()
    index = load_segment_index(source)
    with target.open("wb") as handle:
        for segment, _ in iter_segment_paths(source):
            data = segment.read_bytes()
            combined.update(data)
            handle.write(data)
    if combined.hexdigest() != str(index["events_sha256"]):
        raise ConfigurationError(
            f"compaction of {source} produced sha {combined.hexdigest()}, "
            f"index says {index['events_sha256']}"
        )
    return target


def read_segmented_documents(
    index_path: str | Path, *, tolerant: bool = False
) -> tuple[list[dict], int]:
    """Parse a segmented stream into raw JSON documents.

    Mirrors :func:`repro.obs.sinks.read_jsonl_documents`: with
    ``tolerant=True`` a malformed *final* line of the *final* segment is
    skipped and counted; malformed lines anywhere else raise.
    """
    source = Path(index_path)
    paths = iter_segment_paths(source)
    documents: list[dict] = []
    skipped = 0
    for position, (segment, _) in enumerate(paths):
        last_segment = position == len(paths) - 1
        payload = [
            (lineno, stripped)
            for lineno, raw in enumerate(
                segment.read_text(encoding="utf-8").splitlines(), start=1
            )
            if (stripped := raw.strip())
        ]
        for line_position, (lineno, line) in enumerate(payload):
            try:
                documents.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if (
                    tolerant
                    and last_segment
                    and line_position == len(payload) - 1
                ):
                    skipped += 1
                    break
                raise ConfigurationError(
                    f"{segment}:{lineno}: not valid JSON: {exc}"
                ) from exc
    return documents, skipped
