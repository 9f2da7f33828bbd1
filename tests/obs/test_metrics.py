"""Tests for counters, gauges, histograms, and the registry."""

import pytest

from repro.errors import ConfigurationError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_summary_table,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_counting_down_rejected(self):
        with pytest.raises(ConfigurationError):
            Counter("c").inc(-1)


class TestGauge:
    def test_default_tick_is_sample_index(self):
        gauge = Gauge("g")
        gauge.set(10.0)
        gauge.set(20.0)
        assert gauge.last == 20.0
        # Ticks 0 and 1 so far: an explicit 1.5 is newer, and the next
        # default tick (3 samples in, so 3.0) is newer again.
        gauge.set(7.0, tick=1.5)
        assert gauge.last == 7.0
        gauge.set(3.0)
        assert gauge.last == 3.0

    def test_explicit_tick(self):
        gauge = Gauge("g")
        gauge.set(1.5, tick=100.0)
        gauge.set(9.0)  # default tick 1.0 is older than 100.0
        assert gauge.last == 1.5
        assert gauge.sample_count == 2

    def test_summary_has_percentiles(self):
        gauge = Gauge("g")
        for value in range(1, 101):
            gauge.set(float(value))
        summary = gauge.summary()
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert summary["mean"] == pytest.approx(50.5)
        bound = gauge.sketch.quantile_error_bound
        # Nearest-rank truths over 1..100.
        for key, truth in (("p50", 50.0), ("p95", 95.0), ("p99", 99.0)):
            assert abs(summary[key] - truth) <= bound * truth

    def test_last_of_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Gauge("g").last

    def test_non_finite_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            Gauge("g").set(float("nan"))


class TestHistogram:
    def test_bucketing_and_quantiles(self):
        hist = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 5.0, 50.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.bucket_counts() == (1, 2, 1, 0)
        assert hist.quantile(0.5) == 10.0
        assert hist.quantile(1.0) == 100.0

    def test_overflow_bucket(self):
        hist = Histogram("h", buckets=(1.0,))
        hist.observe(99.0)
        assert hist.bucket_counts() == (0, 1)
        assert hist.quantile(0.99) == float("inf")

    def test_mean(self):
        hist = Histogram("h")
        hist.observe(2.0)
        hist.observe(4.0)
        assert hist.mean == 3.0

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h", buckets=(5.0, 1.0))

    def test_empty_quantile_rejected(self):
        with pytest.raises(ConfigurationError):
            Histogram("h").quantile(0.5)


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert len(registry) == 1

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(ConfigurationError):
            registry.gauge("a")

    @pytest.mark.parametrize("kind", ["gauge", "histogram"])
    def test_get_or_create_returns_same_gauge_or_histogram(self, kind):
        registry = MetricsRegistry()
        getter = getattr(registry, kind)
        assert getter("a") is getter("a")
        assert len(registry) == 1

    @pytest.mark.parametrize(
        "registered, requested",
        [
            ("counter", "gauge"), ("counter", "histogram"),
            ("gauge", "counter"), ("gauge", "histogram"),
            ("histogram", "counter"), ("histogram", "gauge"),
        ],
    )
    def test_kind_mismatch_message(self, registered, requested):
        registry = MetricsRegistry()
        original = getattr(registry, registered)("a")
        expected = f"a is a {registered.title()}, not a {requested.title()}"
        with pytest.raises(ConfigurationError, match=f"^{expected}$"):
            getattr(registry, requested)("a")
        assert getattr(registry, registered)("a") is original

    @pytest.mark.parametrize("kind", ["counter", "gauge", "histogram"])
    def test_empty_name_message(self, kind):
        registry = MetricsRegistry()
        with pytest.raises(
            ConfigurationError, match="^instrument name must be non-empty$"
        ):
            getattr(registry, kind)("")
        assert len(registry) == 0

    def test_names_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z")
        registry.gauge("a")
        assert registry.names() == ("a", "z")

    def test_to_summary_is_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.gauge("power_w").set(60.0)
        registry.histogram("iters").observe(4.0)
        summary = registry.to_summary()
        assert summary["hits"] == {"kind": "counter", "value": 3}
        assert summary["power_w"]["kind"] == "gauge"
        assert summary["power_w"]["samples"] == 1
        assert summary["power_w"]["mode"] == "streaming"
        assert summary["iters"]["kind"] == "histogram"
        assert summary["iters"]["count"] == 1
        assert "p99" in summary["iters"]
        assert registry.to_summary() == summary

    def test_render_table_lists_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.histogram("iters").observe(2.0)
        table = registry.render_table()
        assert "hits" in table
        assert "iters" in table
        assert "counter" in table

    def test_render_summary_table_from_plain_dict(self):
        # The CLI renders summaries read back from manifests, where the
        # registry object no longer exists.
        table = render_summary_table(
            {"hits": {"kind": "counter", "value": 7}}, title="t"
        )
        assert "value=7" in table

    def test_render_empty(self):
        assert "no instruments" in MetricsRegistry().render_table()
