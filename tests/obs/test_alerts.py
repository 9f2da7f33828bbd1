"""Tests for the declarative alert/SLO rules and the evaluation engine."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.alerts import (
    SLO_KIND,
    AlertRule,
    SloTarget,
    default_rule_pack,
    evaluate_rules,
    load_rule_pack,
    load_slo_pack,
)
from repro.obs.events import AlertEvent, IncidentEvent
from repro.obs.sinks import read_jsonl
from repro.obs.tsdb import Tsdb

SEED = 2019


def _tsdb(values, *, metric="fleet.tuned_slowest_mhz", window_ticks=4.0):
    tsdb = Tsdb("exp", SEED, window_ticks=window_ticks)
    for index, value in enumerate(values):
        tsdb.record(metric, float(index), float(value))
    return tsdb


class TestAlertRuleValidation:
    def test_minimal_threshold_rule(self):
        rule = AlertRule(
            name="floor",
            kind="threshold",
            metric="fleet.tuned_slowest_mhz",
            op="below",
            threshold=3600.0,
        )
        assert "below 3600.0" in rule.describe()

    def test_round_trips_through_dict(self):
        rule = AlertRule(
            name="drift",
            kind="ratio_vs_baseline",
            metric="fleet.probe_runs",
            ratio=3.0,
            min_delta=8.0,
        )
        assert AlertRule.from_dict(rule.to_dict()) == rule

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "mystery"},
            {"reduce": "median"},
            {"op": "sideways"},
            {"severity": "loud"},
            {"kind": "ratio_vs_baseline", "ratio": 0.5},
            {"min_delta": -1.0},
            {"fence_k": 0.0},
            {"threshold": float("nan")},
            # A NaN or infinite bound compares false against every value
            # and silently switches the rule off; a string or bool is no
            # number at all.
            {"kind": "quantile_fence", "fence_k": float("nan")},
            {"kind": "quantile_fence", "fence_k": float("inf")},
            {"min_delta": float("nan")},
            {"kind": "ratio_vs_baseline", "ratio": float("nan")},
            {"threshold": "4500"},
            {"threshold": True},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        base = dict(
            name="r", kind="threshold", metric="fleet.probe_runs"
        )
        with pytest.raises(ConfigurationError):
            AlertRule(**{**base, **kwargs})

    def test_unknown_document_key_rejected(self):
        with pytest.raises(ConfigurationError):
            AlertRule.from_dict(
                {
                    "name": "r",
                    "kind": "threshold",
                    "metric": "fleet.probe_runs",
                    "hostname": "nope",
                }
            )

    def test_unsuffixed_metric_rejected(self):
        """RL013 hygiene applies to JSON packs, not just source literals."""
        with pytest.raises(ConfigurationError):
            AlertRule(name="r", kind="threshold", metric="fleet.freq")

    def test_wall_clock_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            AlertRule(
                name="r", kind="threshold", metric="fleet.walltime_s"
            )


class TestSloValidation:
    def test_minimal_slo(self):
        slo = SloTarget(
            name="budget",
            metric="fleet.ubench_rollback_steps",
            threshold=4.0,
            objective=0.10,
        )
        assert "budget 0.1" in slo.describe()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"objective": 0.0},
            {"objective": 1.5},
            {"burn_threshold": 0.0},
            {"burn_threshold": float("nan")},
            {"burn_threshold": float("inf")},
            {"threshold": True},
            {"threshold": "1.0"},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        base = dict(
            name="s", metric="fleet.probe_runs", threshold=1.0
        )
        with pytest.raises(ConfigurationError):
            SloTarget(**{**base, **kwargs})


class TestPackLoading:
    def test_rule_pack_round_trip(self, tmp_path):
        pack = {
            "schema": "alert_rules/v1",
            "rules": [rule.to_dict() for rule in default_rule_pack()],
        }
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(pack), encoding="utf-8")
        assert load_rule_pack(path) == default_rule_pack()

    def test_slo_pack_round_trip(self, tmp_path):
        slo = SloTarget(
            name="budget", metric="fleet.probe_runs", threshold=100.0
        )
        path = tmp_path / "slo.json"
        path.write_text(
            json.dumps({"schema": "slo/v1", "slos": [slo.to_dict()]}),
            encoding="utf-8",
        )
        assert load_slo_pack(path) == (slo,)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"schema": "slo/v1", "rules": []}))
        with pytest.raises(ConfigurationError):
            load_rule_pack(path)

    def test_duplicate_names_rejected(self, tmp_path):
        entry = {
            "name": "dup",
            "kind": "threshold",
            "metric": "fleet.probe_runs",
        }
        path = tmp_path / "rules.json"
        path.write_text(
            json.dumps({"schema": "alert_rules/v1", "rules": [entry, entry]})
        )
        with pytest.raises(ConfigurationError):
            load_rule_pack(path)


class TestEvaluateThreshold:
    def test_fires_on_crossing_windows_only(self):
        tsdb = _tsdb([10, 10, 10, 10, 1, 1, 1, 1, 10, 10, 10, 10])
        rule = AlertRule(
            name="floor",
            kind="threshold",
            metric="fleet.tuned_slowest_mhz",
            reduce="min",
            op="below",
            threshold=5.0,
        )
        outcome = evaluate_rules(tsdb, [rule])
        assert [e.window for e in outcome.alerts] == [1]
        assert outcome.fired
        assert outcome.evaluations[0].windows == 3

    def test_consecutive_firings_become_one_incident(self):
        tsdb = _tsdb([1, 1, 1, 1, 1, 1, 1, 1, 10, 10, 10, 10, 1, 1, 1, 1])
        rule = AlertRule(
            name="floor",
            kind="threshold",
            metric="fleet.tuned_slowest_mhz",
            reduce="min",
            op="below",
            threshold=5.0,
        )
        outcome = evaluate_rules(tsdb, [rule])
        incidents = outcome.incidents
        assert [e.action for e in incidents] == ["open", "close", "open", "close"]
        assert incidents[0].window == 0
        assert incidents[1].window == 1
        assert incidents[1].windows_active == 2
        assert incidents[2].window == 3
        assert "2 incident(s)" in outcome.render()

    def test_missing_metric_is_reported_not_raised(self):
        tsdb = _tsdb([1.0])
        rule = AlertRule(
            name="ghost", kind="threshold", metric="fleet.absent_mhz"
        )
        outcome = evaluate_rules(tsdb, [rule])
        assert outcome.missing_metrics == ("fleet.absent_mhz",)
        assert not outcome.fired
        assert "no series for metric" in outcome.render()

    def test_nothing_to_evaluate_raises(self):
        with pytest.raises(ConfigurationError):
            evaluate_rules(_tsdb([1.0]))

    def test_duplicate_names_across_rules_and_slos_raise(self):
        rule = AlertRule(
            name="dup", kind="threshold", metric="fleet.probe_runs"
        )
        slo = SloTarget(name="dup", metric="fleet.probe_runs", threshold=1.0)
        with pytest.raises(ConfigurationError):
            evaluate_rules(_tsdb([1.0]), [rule], [slo])


class TestEvaluateRatioAndFence:
    def test_ratio_uses_first_window_as_baseline(self):
        tsdb = _tsdb([10, 10, 10, 10, 40, 40, 40, 40], metric="fleet.probe_runs")
        rule = AlertRule(
            name="drift",
            kind="ratio_vs_baseline",
            metric="fleet.probe_runs",
            reduce="mean",
            ratio=3.0,
        )
        outcome = evaluate_rules(tsdb, [rule])
        assert [e.window for e in outcome.alerts] == [1]
        assert outcome.alerts[0].threshold == pytest.approx(30.0)

    def test_ratio_respects_min_delta(self):
        tsdb = _tsdb([0.01] * 4 + [0.05] * 4, metric="fleet.probe_runs")
        rule = AlertRule(
            name="drift",
            kind="ratio_vs_baseline",
            metric="fleet.probe_runs",
            ratio=3.0,
            min_delta=1.0,  # 0.04 absolute growth is noise
        )
        assert not evaluate_rules(tsdb, [rule]).fired

    def test_quantile_fence_flags_outlier_window(self):
        # 19 tight windows plus one far-below outlier: p10 and p50 both
        # sit at 100, so the fence is 100 - 2*max(0, 5) = 90.
        values = [100.0] * 76 + [40.0] * 4
        tsdb = _tsdb(values)
        rule = AlertRule(
            name="outlier",
            kind="quantile_fence",
            metric="fleet.tuned_slowest_mhz",
            reduce="min",
            op="below",
            fence_k=2.0,
            min_delta=5.0,
        )
        outcome = evaluate_rules(tsdb, [rule])
        assert [e.window for e in outcome.alerts] == [19]

    def test_slo_burn_rate_fires_when_budget_burns(self):
        # 2 bad windows out of 4 with a 25% objective: burn hits 2.0.
        tsdb = _tsdb(
            [1, 1, 1, 1, 9, 9, 9, 9, 9, 9, 9, 9, 1, 1, 1, 1],
            metric="fleet.ubench_rollback_steps",
        )
        slo = SloTarget(
            name="rollback-budget",
            metric="fleet.ubench_rollback_steps",
            threshold=5.0,
            reduce="mean",
            op="above",
            objective=0.25,
            burn_threshold=1.5,
        )
        outcome = evaluate_rules(tsdb, [], [slo])
        assert outcome.fired
        assert all(e.kind == SLO_KIND for e in outcome.alerts)
        assert outcome.alerts[0].value > 1.5


class TestOutcomeArtifacts:
    def _fired_outcome(self):
        tsdb = _tsdb([1, 1, 1, 1, 10, 10, 10, 10])
        rule = AlertRule(
            name="floor",
            kind="threshold",
            metric="fleet.tuned_slowest_mhz",
            reduce="min",
            op="below",
            threshold=5.0,
        )
        return evaluate_rules(tsdb, [rule])

    def test_canonical_json_is_stable(self):
        left = self._fired_outcome().to_json()
        right = self._fired_outcome().to_json()
        assert left == right
        document = json.loads(left)
        assert document["kind"] == "alert_outcome"
        assert left == json.dumps(document, indent=2, sort_keys=True) + "\n"

    def test_events_round_trip_through_standard_reader(self, tmp_path):
        outcome = self._fired_outcome()
        path = outcome.write_events(tmp_path / "alerts.events.jsonl")
        events = list(read_jsonl(path))
        assert events == list(outcome.events)
        assert isinstance(events[0], AlertEvent)
        assert isinstance(events[-1], IncidentEvent)

    def test_skipped_lines_surface_in_digest(self):
        tsdb = _tsdb([1.0])
        rule = AlertRule(
            name="floor", kind="threshold", metric="fleet.tuned_slowest_mhz"
        )
        outcome = evaluate_rules(tsdb, [rule], skipped_lines=3)
        assert "3 truncated stream line(s)" in outcome.render()


class TestDefaultPack:
    def test_loads_and_names_are_unique(self):
        pack = default_rule_pack()
        assert len(pack) == 5
        assert len({rule.name for rule in pack}) == len(pack)

    def test_self_clean_on_healthy_fleet(self):
        """The shipped pack must not fire on a healthy seeded fleet."""
        from repro.core.fleet import characterize_fleet

        tsdb = Tsdb("fleet", SEED)
        characterize_fleet(8, seed=SEED, trials=2, n_cores=4, tsdb=tsdb)
        outcome = evaluate_rules(tsdb, default_rule_pack())
        assert not outcome.fired
        assert outcome.missing_metrics == ()
