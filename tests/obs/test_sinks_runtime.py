"""Tests for sinks and the installable Observability context."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.events import CpmStepEvent, RollbackEvent, SpanEvent
from repro.obs.runtime import Observability, get_obs, install, observed
from repro.obs.sinks import (
    JsonlFileSink,
    NullSink,
    RingBufferSink,
    event_to_json_line,
    read_jsonl,
    read_jsonl_documents,
)


def _step(seq: int = 0) -> CpmStepEvent:
    return CpmStepEvent(
        seq=seq, core_label="P0C0", workload="idle",
        reduction_steps=1, safe=True, slack_ps=2.0,
    )


class TestRingBufferSink:
    def test_keeps_last_capacity_events(self):
        sink = RingBufferSink(capacity=2)
        for seq in range(5):
            sink.emit(_step(seq))
        assert sink.total_emitted == 5
        assert len(sink) == 2
        assert [e.seq for e in sink.events()] == [3, 4]

    def test_type_filter(self):
        sink = RingBufferSink()
        sink.emit(_step())
        sink.emit(
            RollbackEvent(
                seq=1, core_label="P0C0", stage="deploy", workload="",
                from_steps=2, to_steps=1,
            )
        )
        assert len(sink.events(RollbackEvent)) == 1
        assert len(sink.events(CpmStepEvent)) == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            RingBufferSink(capacity=0)


class TestJsonlFileSink:
    def test_emitting_after_close_rejected(self, tmp_path):
        sink = JsonlFileSink(tmp_path / "e.jsonl")
        sink.emit(_step())
        sink.close()
        with pytest.raises(ConfigurationError):
            sink.emit(_step())

    def test_unwritable_path_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            JsonlFileSink(tmp_path / "no" / "such" / "dir" / "e.jsonl")

    def test_missing_file_read_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            list(read_jsonl(tmp_path / "absent.jsonl"))

    def test_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ConfigurationError):
            list(read_jsonl(path))


class TestTolerantRead:
    def test_truncated_final_line_skipped_and_counted(self, tmp_path):
        path = tmp_path / "e.jsonl"
        intact = event_to_json_line(_step())
        # A crashed writer leaves a partial final record behind.
        path.write_text(intact + "\n" + intact[: len(intact) // 2] + "\n")
        documents, skipped = read_jsonl_documents(path, tolerant=True)
        assert skipped == 1
        assert len(documents) == 1
        assert documents[0]["seq"] == 0

    def test_intact_stream_reports_zero_skipped(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text(event_to_json_line(_step()) + "\n")
        documents, skipped = read_jsonl_documents(path, tolerant=True)
        assert skipped == 0
        assert len(documents) == 1

    def test_mid_stream_corruption_still_rejected(self, tmp_path):
        path = tmp_path / "e.jsonl"
        intact = event_to_json_line(_step())
        # Only the FINAL line is forgivable; corruption followed by more
        # records means the stream itself is damaged, not just cut short.
        path.write_text("not json\n" + intact + "\n")
        with pytest.raises(ConfigurationError):
            read_jsonl_documents(path, tolerant=True)

    def test_strict_mode_rejects_truncated_final_line(self, tmp_path):
        path = tmp_path / "e.jsonl"
        intact = event_to_json_line(_step())
        path.write_text(intact + "\n{\"half\":\n")
        with pytest.raises(ConfigurationError):
            read_jsonl_documents(path, tolerant=False)


class TestObservability:
    def test_disabled_by_default(self):
        assert get_obs().enabled is False

    def test_emit_stamps_monotonic_seq(self):
        sink = RingBufferSink()
        obs = Observability(sink)
        obs.emit(_step())
        obs.emit(_step())
        assert [e.seq for e in sink.events()] == [0, 1]
        assert obs.next_seq == 2

    def test_emit_when_disabled_is_noop(self):
        Observability(sink=None).emit(_step())  # must not raise

    def test_observed_restores_previous_context(self):
        before = get_obs()
        obs = Observability(RingBufferSink())
        with observed(obs):
            assert get_obs() is obs
        assert get_obs() is before

    def test_install_returns_previous(self):
        obs = Observability(RingBufferSink())
        previous = install(obs)
        try:
            assert get_obs() is obs
        finally:
            install(previous)

    def test_tracer_spans_become_events(self):
        sink = RingBufferSink()
        obs = Observability(sink)
        with obs.tracer.span("outer"):
            obs.emit(_step())
        spans = sink.events(SpanEvent)
        assert len(spans) == 1
        assert spans[0].name == "outer"
        # The span covered one emitted event: ticks 0 -> 1.
        assert spans[0].start_tick == 0.0
        assert spans[0].end_tick == 1.0

    def test_counters_accumulate_via_context(self):
        obs = Observability(RingBufferSink())
        obs.metrics.counter("x").inc()
        assert obs.metrics.counter("x").value == 1


class TestEmitNew:
    def test_fast_path_equals_normal_construction(self):
        """``emit_new`` must be indistinguishable from ``emit`` downstream."""
        fast_sink, slow_sink = RingBufferSink(), RingBufferSink()
        fast, slow = Observability(fast_sink), Observability(slow_sink)
        fast.emit_new(
            CpmStepEvent,
            core_label="P0C0",
            workload="idle",
            reduction_steps=1,
            safe=True,
            slack_ps=2.0,
        )
        slow.emit(_step())
        fast_event, slow_event = fast_sink.events()[0], slow_sink.events()[0]
        assert fast_event == slow_event
        assert hash(fast_event) == hash(slow_event)
        assert event_to_json_line(fast_event) == event_to_json_line(slow_event)
        assert fast.next_seq == 1

    def test_stamps_monotonic_sequence(self):
        sink = RingBufferSink()
        obs = Observability(sink)
        for _ in range(3):
            obs.emit_new(
                CpmStepEvent,
                core_label="P0C0",
                workload="idle",
                reduction_steps=1,
                safe=True,
                slack_ps=2.0,
            )
        assert [e.seq for e in sink.events()] == [0, 1, 2]

    def test_metrics_only_sink_suppresses_event_construction(self):
        """NullSink declines events at the source: nothing is built."""
        sink = NullSink()
        obs = Observability(sink)
        assert obs.enabled  # metrics still collect ...
        assert not obs.events_enabled  # ... but events are never made
        obs.emit_new(
            CpmStepEvent,
            core_label="P0C0",
            workload="idle",
            reduction_steps=1,
            safe=True,
            slack_ps=2.0,
        )
        obs.emit(_step())
        assert sink.count == 0  # neither path delivered anything
        assert obs.next_seq == 0
