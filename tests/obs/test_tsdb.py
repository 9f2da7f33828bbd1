"""Tests for the persistent metric time-series layer (repro.obs.tsdb).

The load-bearing invariants: canonical serialization (same samples ⇒
byte-identical series files), order-invariant merge (split/merge in any
partition equals the serial fold), and tolerant stream ingest (a
truncated final line is a counted warning, never a crash).
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.tsdb import (
    MetricTimeSeries,
    Tsdb,
    TsdbStore,
    capture_documents,
    capture_stream,
    capture_summary,
    validate_metric_name,
)
from repro.obs.stream.window import WindowedAggregator

SEED = 2019


def _filled(experiment="exp", seed=SEED, n=200, window_ticks=64.0):
    tsdb = Tsdb(experiment, seed, window_ticks=window_ticks)
    for index in range(n):
        tsdb.record("fleet.tuned_slowest_mhz", float(index), 4600.0 + index)
        tsdb.record("fleet.probe_runs", float(index), float(index % 7))
    return tsdb


class TestMetricNames:
    def test_dotted_names_accepted(self):
        assert validate_metric_name("fleet.tuned_slowest_mhz")

    @pytest.mark.parametrize(
        "bad", ["", ".lead", "trail.", "sp ace", "a..b", "semi;colon"]
    )
    def test_malformed_names_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            validate_metric_name(bad)


class TestTsdbModel:
    def test_record_and_windows(self):
        tsdb = _filled(n=130)
        series = tsdb.series("fleet.tuned_slowest_mhz")
        windows = series.windows()
        assert [w["window"] for w in windows] == [0.0, 1.0, 2.0]
        assert windows[0]["count"] == 64
        assert windows[0]["min"] == pytest.approx(4600.0)
        assert windows[2]["count"] == 130 - 128

    def test_unknown_metric_raises(self):
        with pytest.raises(ConfigurationError):
            _filled().series("fleet.nonexistent_mhz")

    def test_state_round_trip_is_exact(self):
        tsdb = _filled()
        clone = Tsdb.from_state(tsdb.to_state())
        assert clone.to_state() == tsdb.to_state()

    def test_merge_is_order_invariant(self):
        serial = _filled(n=300)
        # Partition the same samples into odd/even chips, fold backwards.
        even = Tsdb("exp", SEED)
        odd = Tsdb("exp", SEED)
        for index in reversed(range(300)):
            target = even if index % 2 == 0 else odd
            target.record(
                "fleet.tuned_slowest_mhz", float(index), 4600.0 + index
            )
            target.record(
                "fleet.probe_runs", float(index), float(index % 7)
            )
        odd.merge(even)
        assert odd.to_state() == serial.to_state()

    def test_merge_rejects_mismatched_runs(self):
        with pytest.raises(ConfigurationError):
            _filled(seed=SEED).merge(_filled(seed=7))
        with pytest.raises(ConfigurationError):
            _filled(experiment="a").merge(_filled(experiment="b"))
        with pytest.raises(ConfigurationError):
            _filled(window_ticks=64.0).merge(_filled(window_ticks=32.0))

    @pytest.mark.parametrize("width", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_window_rejected(self, width):
        # NaN used to pass the > 0 check and crash the first sample; an
        # infinite width wrote "Infinity", which is not JSON, to disk.
        with pytest.raises(ConfigurationError, match="finite"):
            WindowedAggregator(width)
        with pytest.raises(ConfigurationError, match="finite"):
            Tsdb("exp", SEED, window_ticks=width)
        with pytest.raises(ConfigurationError, match="finite"):
            MetricTimeSeries("fleet.probe_runs", window_ticks=width)

    def test_series_merge_requires_same_metric(self):
        left = _filled().series("fleet.probe_runs")
        right = _filled().series("fleet.tuned_slowest_mhz")
        with pytest.raises(ConfigurationError):
            left.merge(right)

    def test_series_state_round_trip(self):
        series = _filled().series("fleet.probe_runs")
        clone = MetricTimeSeries.from_state(series.to_state())
        assert clone.to_state() == series.to_state()


class TestTsdbStore:
    def test_write_produces_canonical_files(self, tmp_path):
        store = TsdbStore(tmp_path / "tsdb")
        paths = store.write(_filled())
        assert len(paths) == 2
        for path in paths:
            text = path.read_text(encoding="utf-8")
            document = json.loads(text)
            canonical = json.dumps(document, indent=2, sort_keys=True) + "\n"
            assert text == canonical

    def test_same_samples_give_byte_identical_files(self, tmp_path):
        left = TsdbStore(tmp_path / "a")
        right = TsdbStore(tmp_path / "b")
        path_a = left.write(_filled())[0]
        path_b = right.write(_filled())[0]
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_merge_on_write_matches_serial_fold(self, tmp_path):
        """Tentpole: N workers folding into one store == the serial run."""
        serial_store = TsdbStore(tmp_path / "serial")
        serial_store.write(_filled(n=300))

        chunked_store = TsdbStore(tmp_path / "chunked")
        for start in (200, 100, 0):  # out-of-order worker completion
            part = Tsdb("exp", SEED)
            for index in range(start, start + 100):
                part.record(
                    "fleet.tuned_slowest_mhz", float(index), 4600.0 + index
                )
                part.record(
                    "fleet.probe_runs", float(index), float(index % 7)
                )
            chunked_store.write(part)

        for metric in ("fleet.probe_runs", "fleet.tuned_slowest_mhz"):
            serial_bytes = serial_store.series_path(
                "exp", SEED, metric
            ).read_bytes()
            chunked_bytes = chunked_store.series_path(
                "exp", SEED, metric
            ).read_bytes()
            assert chunked_bytes == serial_bytes

    def test_load_run_round_trips(self, tmp_path):
        store = TsdbStore(tmp_path / "tsdb")
        tsdb = _filled()
        store.write(tsdb)
        loaded = store.load_run("exp", SEED)
        assert loaded.to_state() == tsdb.to_state()

    def test_runs_lists_persisted_pairs(self, tmp_path):
        store = TsdbStore(tmp_path / "tsdb")
        store.write(_filled(experiment="alpha", seed=1))
        store.write(_filled(experiment="beta", seed=2))
        assert store.runs() == [("alpha", 1), ("beta", 2)]

    def test_missing_series_raises(self, tmp_path):
        store = TsdbStore(tmp_path / "tsdb")
        with pytest.raises(ConfigurationError):
            store.load_series("exp", SEED, "fleet.probe_runs")
        with pytest.raises(ConfigurationError):
            store.load_run("exp", SEED)

    @pytest.mark.parametrize("width", ["NaN", "Infinity"])
    def test_stored_non_finite_window_is_a_clean_error(self, tmp_path, width):
        store = TsdbStore(tmp_path / "tsdb")
        path = store.write(_filled())[0]
        text = path.read_text(encoding="utf-8")
        path.write_text(
            text.replace('"window_ticks": 64.0', f'"window_ticks": {width}'),
            encoding="utf-8",
        )
        metric = json.loads(text)["metric"]
        with pytest.raises(ConfigurationError, match="finite"):
            store.load_series("exp", SEED, metric)
        with pytest.raises(ConfigurationError, match="finite"):
            store.load_run("exp", SEED)

    def test_header_location_mismatch_rejected(self, tmp_path):
        store = TsdbStore(tmp_path / "tsdb")
        path = store.write(_filled())[0]
        document = json.loads(path.read_text(encoding="utf-8"))
        document["seed"] = 7
        path.write_text(json.dumps(document), encoding="utf-8")
        with pytest.raises(ConfigurationError):
            store.load_series("exp", SEED, document["metric"])


class TestCapture:
    def test_documents_become_event_series(self):
        tsdb = Tsdb("run", SEED)
        recorded = capture_documents(
            tsdb,
            [
                {"type": "CpmStepEvent", "seq": 0, "slack_ps": -0.5},
                {"type": "CpmStepEvent", "seq": 1, "slack_ps": 0.25},
                {
                    "type": "RollbackEvent",
                    "seq": 2,
                    "from_steps": 5,
                    "to_steps": 3,
                },
            ],
        )
        assert recorded == 6
        assert tsdb.metrics() == (
            "cpm.slack_ps",
            "events.CpmStepEvent",
            "events.RollbackEvent",
            "rollback.depth_steps",
        )
        depth = tsdb.series("rollback.depth_steps").windows()[0]
        assert depth["max"] == pytest.approx(2.0)

    def test_summary_contributes_headlines(self):
        tsdb = Tsdb("run", SEED)
        recorded = capture_summary(
            tsdb,
            {
                "chip.solves": {"kind": "counter", "value": 12},
                "empty.gauge_mhz": {"kind": "gauge", "samples": 0},
            },
        )
        assert recorded == 1
        assert tsdb.metrics() == ("chip.solves",)

    def test_truncated_stream_is_counted_not_fatal(self, tmp_path):
        """Satellite: tolerant ingest of a torn final line."""
        path = tmp_path / "run.events.jsonl"
        good = json.dumps(
            {"type": "CpmStepEvent", "seq": 0, "slack_ps": 1.0},
            sort_keys=True,
            separators=(",", ":"),
        )
        path.write_text(good + "\n" + '{"type": "CpmSt', encoding="utf-8")
        tsdb = Tsdb("run", SEED)
        recorded, skipped = capture_stream(tsdb, path)
        assert recorded == 2  # occurrence + slack_ps value sample
        assert skipped == 1
