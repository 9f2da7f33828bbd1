"""Tests for first-divergence stream diffing and manifest drift taxonomy."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.analyze.diff import (
    DRIFT_PRIORITY,
    diff_documents,
    diff_manifests,
    diff_streams,
)
from repro.obs.manifest import RunManifest


def _doc(seq: int, slack_ps: float = 2.0, type_: str = "CpmStepEvent") -> dict:
    return {
        "type": type_,
        "seq": seq,
        "core_label": "P0C0",
        "workload": "idle",
        "reduction_steps": 1,
        "safe": True,
        "slack_ps": slack_ps,
    }


def _manifest(**overrides) -> RunManifest:
    base = dict(
        experiment_id="fig11",
        seed=2019,
        limits_fingerprint="f" * 64,
        result_metrics={"gain": 1.5},
        metrics_summary={},
        event_count=2,
        events_sha256="a" * 64,
        platform="linux",
    )
    base.update(overrides)
    return RunManifest(**base)


class TestDiffDocuments:
    def test_identical_streams_have_no_divergence(self):
        docs = [_doc(0), _doc(1)]
        diff = diff_documents(docs, list(docs))
        assert diff.identical
        assert diff.divergence is None

    def test_field_delta_pinpoints_seq_and_field(self):
        left = [_doc(0), _doc(1), _doc(2, slack_ps=2.0)]
        right = [_doc(0), _doc(1), _doc(2, slack_ps=3.5)]
        diff = diff_documents(left, right, context=2)
        div = diff.divergence
        assert div is not None
        assert div.kind == "field_delta"
        assert div.seq == 2
        assert div.index == 2
        assert [d.name for d in div.field_deltas] == ["slack_ps"]
        assert div.field_deltas[0].left == 2.0
        assert div.field_deltas[0].right == 3.5
        assert len(div.context) == 2

    def test_type_mismatch_reported(self):
        left = [_doc(0)]
        right = [_doc(0, type_="RollbackEvent")]
        div = diff_documents(left, right).divergence
        assert div is not None
        assert div.kind == "type_mismatch"
        assert div.left_type == "CpmStepEvent"
        assert div.right_type == "RollbackEvent"

    def test_shorter_left_stream_is_left_ended(self):
        left = [_doc(0)]
        right = [_doc(0), _doc(1)]
        div = diff_documents(left, right).divergence
        assert div is not None
        assert div.kind == "left_ended"
        assert div.seq == 1
        assert div.left_line == "(end of stream)"

    def test_shorter_right_stream_is_right_ended(self):
        div = diff_documents([_doc(0), _doc(1)], [_doc(0)]).divergence
        assert div is not None
        assert div.kind == "right_ended"
        assert div.right_line == "(end of stream)"

    def test_render_names_the_divergence(self):
        diff = diff_documents([_doc(0, slack_ps=1.0)], [_doc(0, slack_ps=9.0)])
        text = diff.render()
        assert "first divergence at seq 0" in text
        assert "slack_ps" in text

    def test_negative_context_rejected(self):
        with pytest.raises(ConfigurationError):
            diff_documents([], [], context=-1)


class TestDiffStreams:
    def test_labels_are_file_names_not_paths(self, tmp_path):
        import json

        left = tmp_path / "deep" / "a.events.jsonl"
        left.parent.mkdir()
        left.write_text(json.dumps(_doc(0)) + "\n")
        right = tmp_path / "b.events.jsonl"
        right.write_text(json.dumps(_doc(0)) + "\n")
        diff = diff_streams(left, right)
        assert diff.left_label == "a.events.jsonl"
        assert str(tmp_path) not in diff.render()

    def test_truncated_final_line_tolerated_and_counted(self, tmp_path):
        import json

        intact = json.dumps(_doc(0))
        left = tmp_path / "a.jsonl"
        left.write_text(intact + "\n" + intact[:10] + "\n")
        right = tmp_path / "b.jsonl"
        right.write_text(intact + "\n")
        diff = diff_streams(left, right)
        assert diff.left_skipped == 1
        assert diff.identical
        assert "truncated line(s) skipped" in diff.render()

    def test_identical_streams_diff_clean(self, tmp_path):
        import json

        line = json.dumps(_doc(0)) + "\n"
        left = tmp_path / "a.jsonl"
        left.write_text(line)
        right = tmp_path / "b.jsonl"
        right.write_text(line)
        assert diff_streams(left, right).identical

    def test_differing_streams_render_the_field(self, tmp_path):
        import json

        left = tmp_path / "a.jsonl"
        left.write_text(json.dumps(_doc(0, slack_ps=1.0)) + "\n")
        right = tmp_path / "b.jsonl"
        right.write_text(json.dumps(_doc(0, slack_ps=2.0)) + "\n")
        diff = diff_streams(left, right)
        assert not diff.identical
        assert "slack_ps" in diff.render()


class TestDiffManifests:
    def test_identical_manifests(self):
        diff = diff_manifests(_manifest(), _manifest())
        assert diff.identical
        assert diff.primary == "identical"
        assert "no drift" in diff.render()

    def test_seed_outranks_stream(self):
        left = _manifest()
        right = _manifest(seed=7, events_sha256="b" * 64)
        diff = diff_manifests(left, right)
        assert diff.primary == "seed"
        assert "stream" in diff.drifts

    def test_drifts_follow_priority_order(self):
        left = _manifest()
        right = _manifest(
            seed=7,
            limits_fingerprint="0" * 64,
            events_sha256="b" * 64,
            result_metrics={"gain": 9.9},
        )
        diff = diff_manifests(left, right)
        positions = [DRIFT_PRIORITY.index(kind) for kind in diff.drifts]
        assert positions == sorted(positions)

    def test_result_drift_names_differing_keys(self):
        left = _manifest(result_metrics={"gain": 1.5, "same": 1.0})
        right = _manifest(result_metrics={"gain": 2.5, "same": 1.0})
        diff = diff_manifests(left, right)
        assert diff.primary == "result"
        assert any("gain" in detail for detail in diff.details)
        assert not any("same" in detail for detail in diff.details)

    def test_accepts_paths(self, tmp_path):
        from repro.obs.manifest import save_manifest

        left_path = tmp_path / "a.manifest.json"
        right_path = tmp_path / "b.manifest.json"
        save_manifest(_manifest(), left_path)
        save_manifest(_manifest(seed=7), right_path)
        diff = diff_manifests(left_path, right_path)
        assert diff.primary == "seed"
        assert diff.left_label == "a.manifest.json"
