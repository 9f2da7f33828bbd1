"""Tests for the span tracer (deterministic ticks + profiling mode)."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.profiling import wall_clock_tick_source
from repro.obs.trace import Span, Tracer


class TestTracer:
    def test_span_records_tick_extent(self):
        ticks = iter([10.0, 25.0])
        tracer = Tracer(lambda: next(ticks))
        with tracer.span("work"):
            pass
        (span,) = tracer.finished
        assert span.start_tick == 10.0
        assert span.end_tick == 25.0
        assert span.tick_extent == 15.0
        assert span.wall_s == -1.0

    def test_nesting_depth_and_completion_order(self):
        tracer = Tracer()
        with tracer.span("outer"):
            assert tracer.depth == 1
            with tracer.span("inner"):
                assert tracer.depth == 2
        names = [span.name for span in tracer.finished]
        assert names == ["inner", "outer"]  # children complete first
        assert tracer.spans_named("inner")[0].depth == 1
        assert tracer.spans_named("outer")[0].depth == 0

    def test_attrs_render(self):
        tracer = Tracer()
        with tracer.span("s", core="P0C1", trial=3):
            pass
        assert tracer.finished[0].render_attrs() == "core=P0C1 trial=3"

    def test_emit_callback_receives_spans(self):
        seen: list[Span] = []
        tracer = Tracer(emit=seen.append)
        with tracer.span("s"):
            pass
        assert [span.name for span in seen] == ["s"]

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("s"):
                raise ValueError("boom")
        assert len(tracer.finished) == 1
        assert tracer.depth == 0

    def test_empty_name_rejected(self):
        tracer = Tracer()
        with pytest.raises(ConfigurationError):
            with tracer.span(""):
                pass


class TestProfilingMode:
    def test_wall_source_stamps_duration(self):
        tracer = Tracer(wall_source=wall_clock_tick_source)
        with tracer.span("timed"):
            sum(range(1000))
        assert tracer.finished[0].wall_s >= 0.0
