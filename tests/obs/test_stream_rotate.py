"""Segmented event streams: rotation, digests, and store round-trips.

The unit half pins the :class:`RotatingJsonlSink` invariants directly —
the combined digest of the segments equals the digest of the equivalent
single-file stream, readers dispatch on the index transparently, and the
tolerant-truncation rule applies to the final line of the final segment.
The integration half is the satellite acceptance: a segmented fleet run
ingests into the :class:`RunStore` (compacting to the single-file
layout) and diffs clean against an unsegmented run of the same seed.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.core.fleet import run_fleet_observed
from repro.errors import ConfigurationError
from repro.obs.analyze.diff import diff_manifests, diff_streams
from repro.obs.analyze.store import RunStore
from repro.obs.events import CpmStepEvent
from repro.obs.runtime import Observability, observed
from repro.obs.sinks import JsonlFileSink, read_jsonl_documents
from repro.obs.stream.rotate import (
    RotatingJsonlSink,
    compact_segments,
    segment_index_path,
    segmented_events_sha256,
)

SEED = 2019


def _emit_steps(sink, n):
    obs = Observability(sink)
    with observed(obs):
        for i in range(n):
            obs.emit_new(
                CpmStepEvent,
                core_label=f"c{i % 4}",
                workload="idle",
                reduction_steps=i % 7,
                safe=True,
                slack_ps=float(i),
            )
    obs.close()


class TestRotatingSink:
    def test_segments_and_index_on_disk(self, tmp_path):
        logical = tmp_path / "run.events.jsonl"
        sink = RotatingJsonlSink(logical, max_events_per_segment=10)
        _emit_steps(sink, 25)
        assert not logical.exists()  # only segments + index, never the file
        index = json.loads(segment_index_path(logical).read_text())
        assert index["event_count"] == 25
        assert [s["events"] for s in index["segments"]] == [10, 10, 5]
        for entry in index["segments"]:
            assert (tmp_path / entry["file"]).exists()

    def test_combined_digest_equals_single_file_digest(self, tmp_path):
        logical = tmp_path / "seg.events.jsonl"
        single = tmp_path / "one.events.jsonl"
        _emit_steps(RotatingJsonlSink(logical, max_events_per_segment=7), 23)
        _emit_steps(JsonlFileSink(single), 23)
        digest, count = segmented_events_sha256(segment_index_path(logical))
        assert count == 23
        assert digest == hashlib.sha256(single.read_bytes()).hexdigest()
        # Compaction reproduces the single file byte-for-byte.
        compacted = compact_segments(
            segment_index_path(logical), tmp_path / "compacted.jsonl"
        )
        assert compacted.read_bytes() == single.read_bytes()

    def test_readers_dispatch_on_logical_path(self, tmp_path):
        logical = tmp_path / "seg.events.jsonl"
        single = tmp_path / "one.events.jsonl"
        _emit_steps(RotatingJsonlSink(logical, max_events_per_segment=4), 11)
        _emit_steps(JsonlFileSink(single), 11)
        via_logical, skipped = read_jsonl_documents(logical)
        via_index, _ = read_jsonl_documents(segment_index_path(logical))
        via_single, _ = read_jsonl_documents(single)
        assert skipped == 0
        assert via_logical == via_index == via_single

    def test_tolerant_truncation_applies_to_final_segment_only(self, tmp_path):
        logical = tmp_path / "seg.events.jsonl"
        _emit_steps(RotatingJsonlSink(logical, max_events_per_segment=5), 12)
        index = json.loads(segment_index_path(logical).read_text())
        last = tmp_path / index["segments"][-1]["file"]
        with last.open("a", encoding="utf-8") as handle:
            handle.write('{"type":"CpmStepEvent","seq":')  # crash mid-write
        documents, skipped = read_jsonl_documents(logical, tolerant=True)
        assert skipped == 1
        assert len(documents) == 12
        with pytest.raises(ConfigurationError):
            read_jsonl_documents(logical, tolerant=False)

    def test_mid_stream_corruption_always_raises(self, tmp_path):
        logical = tmp_path / "seg.events.jsonl"
        _emit_steps(RotatingJsonlSink(logical, max_events_per_segment=5), 12)
        index = json.loads(segment_index_path(logical).read_text())
        first = tmp_path / index["segments"][0]["file"]
        with first.open("a", encoding="utf-8") as handle:
            handle.write("{broken\n")
        with pytest.raises(ConfigurationError):
            read_jsonl_documents(logical, tolerant=True)


class TestFailedSegmentOpen:
    """A segment that cannot be opened ends the stream cleanly: the error
    reaches the caller, and the index covers the segments on disk."""

    @staticmethod
    def _block_second_segment(logical):
        # A directory where the second segment file would be created.
        logical.with_name(logical.name + ".seg0001").mkdir(parents=True)

    def test_sink_keeps_the_finished_segments(self, tmp_path):
        logical = tmp_path / "run.events.jsonl"
        self._block_second_segment(logical)
        sink = RotatingJsonlSink(logical, max_events_per_segment=2)
        obs = Observability(sink)

        def emit():
            obs.emit_new(
                CpmStepEvent, core_label="c0", workload="idle",
                reduction_steps=1, safe=True, slack_ps=0.5,
            )

        emit()
        with pytest.raises(ConfigurationError, match="cannot open event segment"):
            emit()  # fills seg0000, then rotating to seg0001 fails
        with pytest.raises(ConfigurationError, match="no open segment"):
            emit()
        sink.close()
        with pytest.raises(ConfigurationError, match="is closed"):
            emit()

        digest, count = segmented_events_sha256(segment_index_path(logical))
        assert count == sink.count == 2
        assert sink.segment_count == 1
        first = tmp_path / "run.events.jsonl.seg0000"
        assert digest == hashlib.sha256(first.read_bytes()).hexdigest()
        lines = first.read_bytes().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == [0, 1]

    def test_fleet_run_raises_the_open_error(self, tmp_path):
        self._block_second_segment(tmp_path / "fleet.events.jsonl")
        with pytest.raises(ConfigurationError, match="cannot open event segment"):
            run_fleet_observed(
                2, out_dir=tmp_path, seed=SEED, trials=2, n_cores=2,
                segment_events=2,
            )
        _, count = segmented_events_sha256(
            segment_index_path(tmp_path / "fleet.events.jsonl")
        )
        assert count == 2

    def test_cli_exits_1(self, tmp_path, capsys):
        self._block_second_segment(tmp_path / "fleet.events.jsonl")
        code = main([
            "fleet", "characterize", "--chips", "2", "--trials", "2",
            "--cores", "2", "--segment-events", "2", "--out", str(tmp_path),
        ])
        assert code == 1
        assert "cannot open event segment" in capsys.readouterr().err


class TestSegmentedFleetRoundTrip:
    def test_segmented_run_ingests_and_diffs_clean(self, tmp_path):
        """Satellite: segmented runs round-trip through the store."""
        segmented = run_fleet_observed(
            3,
            out_dir=tmp_path / "seg",
            seed=SEED,
            trials=2,
            n_cores=2,
            segment_events=40,
        )
        single = run_fleet_observed(
            3, out_dir=tmp_path / "one", seed=SEED, trials=2, n_cores=2
        )
        # The manifest digest covers the logical concatenation, so the
        # segmented and single-file runs are the same run.
        assert segment_index_path(segmented.events_path).exists()
        assert not segmented.events_path.exists()
        assert (
            segmented.manifest.events_sha256 == single.manifest.events_sha256
        )
        manifest_diff = diff_manifests(segmented.manifest, single.manifest)
        assert manifest_diff.identical, manifest_diff.render()

        store = RunStore(tmp_path / "store")
        record = store.put(segmented.manifest_path, segmented.events_path)
        # Ingest compacts to the single-file layout.
        stored_events = store.events_path(record.run_id)
        assert stored_events.exists()
        assert record.events_sha256 == single.manifest.events_sha256
        loaded = store.load(record.run_id)
        assert loaded.skipped_lines == 0
        assert len(loaded.documents) == segmented.event_count

        stream_diff = diff_streams(stored_events, single.events_path)
        assert stream_diff.identical, stream_diff.render()
