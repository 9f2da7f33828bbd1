"""Per-run manifests: what ran, under what inputs, with what outcome.

A :class:`RunManifest` is the reproducibility receipt of one experiment
run: the experiment id, the seed, the limit-table fingerprint the platform
model is conditioned on, the result's metric dict, the metrics-registry
summary, and a digest of the emitted event stream.  Serialization is
canonical (sorted keys, no host timestamps), so two runs with the same
seed write byte-identical manifests — which is exactly the property the
harness tests assert, and what makes manifests comparable across PRs.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigurationError

#: Manifest schema version (bump on incompatible shape changes).  Schema 2
#: drops the execution-scoped ``fastpath.cache.*`` counters from
#: ``metrics_summary``; schema 3 summarizes every gauge from its quantile
#: sketch (``"mode": "streaming"``), where exact-mode gauges used to carry
#: numpy percentiles.  Schema-1 and schema-2 manifests still load.
MANIFEST_SCHEMA = 3


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 of ``data``."""
    return hashlib.sha256(data).hexdigest()


def fingerprint(document: object) -> str:
    """Canonical-JSON SHA-256 of any JSON-native document."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return sha256_hex(canonical.encode("utf-8"))


def testbed_limits_fingerprint() -> str:
    """Fingerprint of the published Table I anchor rows.

    The testbed limit constants are the platform-model input every
    experiment is conditioned on; fingerprinting them in the manifest
    makes cross-PR result comparisons detect silent model retuning.
    """
    from ..silicon.chipspec import (
        TESTBED_IDLE_LIMITS,
        TESTBED_THREAD_NORMAL_LIMITS,
        TESTBED_THREAD_WORST_LIMITS,
        TESTBED_UBENCH_LIMITS,
    )

    return fingerprint(
        {
            "idle": list(TESTBED_IDLE_LIMITS),
            "ubench": list(TESTBED_UBENCH_LIMITS),
            "thread_normal": list(TESTBED_THREAD_NORMAL_LIMITS),
            "thread_worst": list(TESTBED_THREAD_WORST_LIMITS),
        }
    )


@dataclass(frozen=True)
class RunManifest:
    """Reproducibility receipt of one experiment run."""

    experiment_id: str
    seed: int
    limits_fingerprint: str
    result_metrics: dict[str, float] = field(default_factory=dict)
    metrics_summary: dict[str, dict] = field(default_factory=dict)
    event_count: int = 0
    events_sha256: str = ""
    platform: str = ""

    def __post_init__(self) -> None:
        if not self.experiment_id:
            raise ConfigurationError("experiment_id must be non-empty")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        """JSON-native form, with schema/kind header."""
        return {
            "kind": "run_manifest",
            "schema": MANIFEST_SCHEMA,
            "experiment_id": self.experiment_id,
            "seed": self.seed,
            "limits_fingerprint": self.limits_fingerprint,
            "result_metrics": dict(self.result_metrics),
            "metrics_summary": dict(self.metrics_summary),
            "event_count": self.event_count,
            "events_sha256": self.events_sha256,
            "platform": self.platform,
        }

    def render(self) -> str:
        """Short human-readable summary (full detail is the JSON form)."""
        lines = [
            f"run manifest: {self.experiment_id} (seed {self.seed})",
            f"  limits fingerprint: {self.limits_fingerprint[:16]}…",
            f"  events: {self.event_count} (sha256 "
            f"{self.events_sha256[:16] + '…' if self.events_sha256 else 'n/a'})",
            f"  metrics: {len(self.result_metrics)} result, "
            f"{len(self.metrics_summary)} instrument(s)",
        ]
        return "\n".join(lines)


def default_platform_tag() -> str:
    """Deterministic-per-machine platform tag (no hostnames, no clocks)."""
    from .. import __version__

    major, minor = sys.version_info[:2]
    return f"repro-{__version__}/python-{major}.{minor}/{sys.platform}"


def build_manifest(
    experiment_id: str,
    seed: int,
    *,
    result_metrics: dict[str, float] | None = None,
    metrics_summary: dict[str, dict] | None = None,
    events_path: str | Path | None = None,
    event_count: int = 0,
) -> RunManifest:
    """Assemble a manifest, hashing the event stream when one was written.

    ``events_path`` may be a plain JSONL file, a ``*.segments.json``
    index written by :class:`~repro.obs.stream.rotate.RotatingJsonlSink`,
    or the logical path of a rotated stream (index sitting beside it).
    The segmented digest is the sha256 of the logical concatenation of
    the segment bytes — identical to the single-file digest — so rotation
    never changes manifest bytes.
    """
    from .stream.rotate import (
        is_segment_index,
        segment_index_path,
        segmented_events_sha256,
    )

    events_sha256 = ""
    if events_path is not None:
        events_file = Path(events_path)
        if is_segment_index(events_file):
            events_sha256, _ = segmented_events_sha256(events_file)
        elif not events_file.exists() and segment_index_path(events_file).exists():
            events_sha256, _ = segmented_events_sha256(
                segment_index_path(events_file)
            )
        elif not events_file.exists():
            raise ConfigurationError(f"no event stream at {events_file}")
        else:
            events_sha256 = sha256_hex(events_file.read_bytes())
    return RunManifest(
        experiment_id=experiment_id,
        seed=seed,
        limits_fingerprint=testbed_limits_fingerprint(),
        result_metrics=dict(result_metrics or {}),
        metrics_summary=dict(metrics_summary or {}),
        event_count=event_count,
        events_sha256=events_sha256,
        platform=default_platform_tag(),
    )


def save_manifest(manifest: RunManifest, path: str | Path) -> Path:
    """Write the canonical JSON form (sorted keys, trailing newline)."""
    target = Path(path)
    target.write_text(
        json.dumps(manifest.to_dict(), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    return target


def load_manifest(path: str | Path) -> RunManifest:
    """Read a manifest written by :func:`save_manifest`, with validation."""
    source = Path(path)
    if not source.exists():
        raise ConfigurationError(f"no manifest at {source}")
    try:
        document = json.loads(source.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{source} is not valid JSON: {exc}") from exc
    if document.get("kind") != "run_manifest":
        raise ConfigurationError(
            f"expected a run_manifest document, got {document.get('kind')!r}"
        )
    schema = document.get("schema")
    if not isinstance(schema, int) or schema > MANIFEST_SCHEMA:
        raise ConfigurationError(
            f"unsupported manifest schema {schema!r} (this library reads "
            f"<= {MANIFEST_SCHEMA})"
        )
    try:
        return RunManifest(
            experiment_id=str(document["experiment_id"]),
            seed=int(document["seed"]),
            limits_fingerprint=str(document["limits_fingerprint"]),
            result_metrics=dict(document.get("result_metrics", {})),
            metrics_summary=dict(document.get("metrics_summary", {})),
            event_count=int(document.get("event_count", 0)),
            events_sha256=str(document.get("events_sha256", "")),
            platform=str(document.get("platform", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed manifest {source}: {exc}") from exc
