"""Tests for JSON persistence of limit tables and deployments."""

import json

import pytest

from repro.core.persistence import (
    SCHEMA_VERSION,
    deployment_to_dict,
    limit_table_from_dict,
    limit_table_to_dict,
    load_limit_table,
    save_deployment,
    save_limit_table,
)
from repro.core.stress_test import StressTestProcedure
from repro.errors import ConfigurationError
from repro.rng import RngStreams


class TestLimitTableRoundTrip:
    def test_round_trip_preserves_everything(self, testbed_limits, tmp_path):
        path = save_limit_table(testbed_limits, tmp_path / "limits.json")
        loaded = load_limit_table(path)
        assert loaded.to_dict() == testbed_limits.to_dict()

    def test_document_header(self, testbed_limits):
        document = limit_table_to_dict(testbed_limits)
        assert document["kind"] == "limit_table"
        assert document["schema"] == SCHEMA_VERSION

    def test_file_is_readable_json(self, testbed_limits, tmp_path):
        path = save_limit_table(testbed_limits, tmp_path / "limits.json")
        parsed = json.loads(path.read_text())
        assert "P0C3" in parsed["cores"]

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_limit_table(tmp_path / "nope.json")

    def test_corrupt_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_limit_table(bad)

    def test_wrong_kind_rejected(self, testbed_limits):
        document = limit_table_to_dict(testbed_limits)
        document["kind"] = "something_else"
        with pytest.raises(ConfigurationError):
            limit_table_from_dict(document)

    def test_future_schema_rejected(self, testbed_limits):
        document = limit_table_to_dict(testbed_limits)
        document["schema"] = SCHEMA_VERSION + 1
        with pytest.raises(ConfigurationError):
            limit_table_from_dict(document)

    def test_malformed_row_rejected(self, testbed_limits):
        document = limit_table_to_dict(testbed_limits)
        del document["cores"]["P0C0"]["idle"]
        with pytest.raises(ConfigurationError, match="P0C0"):
            limit_table_from_dict(document)

    def test_invariant_enforced_on_load(self, testbed_limits):
        document = limit_table_to_dict(testbed_limits)
        document["cores"]["P0C0"]["thread_worst"] = 99  # violates ordering
        with pytest.raises(ConfigurationError):
            limit_table_from_dict(document)

    def test_empty_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            limit_table_from_dict(
                {"kind": "limit_table", "schema": 1, "cores": {}}
            )


class TestDeploymentRoundTrip:
    @pytest.fixture(scope="class")
    def config(self, chip0, p0_limits):
        return StressTestProcedure(RngStreams(5)).deploy_chip(
            chip0, p0_limits, rollback_steps=1
        )

    def test_round_trip(self, config, tmp_path):
        path = save_deployment(config, tmp_path / "deploy.json")
        assert json.loads(path.read_text()) == deployment_to_dict(config)
