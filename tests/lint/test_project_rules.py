"""Fixture-driven tests for the project rules RL009-RL012.

Each rule has at least one corpus that must flag (with exact rule id,
file, and line — the acceptance contract for the analyzer) and one that
must stay clean.
"""

import json
import shutil
from pathlib import Path

from repro.lint.cli import main
from repro.lint.dataflow.project import analyze_project
from repro.lint.report import format_sarif
from repro.lint.rules import PROJECT_RULES, get_project_rules

FIXTURES = Path(__file__).parent / "fixtures"


def _by_rule(findings, rule_id):
    return [finding for finding in findings if finding.rule_id == rule_id]


class TestUnitFlowRL009:
    def test_mhz_to_v_flow_is_exactly_one_finding(self):
        findings = analyze_project([FIXTURES / "rl009_bad.py"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule_id == "RL009"
        assert finding.path.endswith("rl009_bad.py")
        assert finding.line == 11
        assert "_mhz" in finding.message and "vdd_v" in finding.message

    def test_unit_correct_flows_stay_clean(self):
        assert analyze_project([FIXTURES / "rl009_good.py"]) == []


class TestSeedTaintRL010:
    def test_unseeded_flow_into_experiments_is_exactly_one_finding(self):
        findings = analyze_project([FIXTURES / "rl010_flow"])
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule_id == "RL010"
        assert finding.path.endswith("rl010_flow/driver.py")
        assert finding.line == 10
        assert "run_experiment" in finding.message
        assert "experiments/" in finding.message

    def test_stream_derived_randomness_stays_clean(self):
        assert analyze_project([FIXTURES / "rl010_clean"]) == []


class TestObsContractRL011:
    def test_all_three_contract_clauses_flag(self):
        findings = analyze_project([FIXTURES / "rl011_bad.py"])
        assert [finding.rule_id for finding in findings] == ["RL011"] * 3
        lines = [finding.line for finding in findings]
        assert lines == [19, 20, 21]
        messages = "\n".join(finding.message for finding in findings)
        assert "misses required field(s) freq_mhz, seq" in messages
        assert "sort_keys=True" in messages
        assert "outside a `with`" in messages

    def test_contract_respecting_code_stays_clean(self):
        assert analyze_project([FIXTURES / "rl011_good.py"]) == []


#: The corpus's test module, written at copy time: a ``test_*.py`` file in
#: the fixture tree would be collected by pytest.
RL012_TEST_MODULE = """from lib import tests_only_helper


def test_tests_only_helper():
    assert tests_only_helper() == 45
"""


def _rl012_corpus(tmp_path):
    # Copied out of tests/ so the corpus is not classified as test code.
    corpus = tmp_path / "rl012_api"
    shutil.copytree(FIXTURES / "rl012_api", corpus)
    (corpus / "test_lib.py").write_text(RL012_TEST_MODULE, encoding="utf-8")
    return corpus


class TestDeadApiRL012:
    def test_dead_public_symbol_flags_once(self, tmp_path):
        findings = analyze_project([_rl012_corpus(tmp_path)])
        (finding,) = [f for f in findings if "dead_helper" in f.message]
        assert finding.rule_id == "RL012"
        assert finding.path.endswith("lib.py")
        assert finding.line == 8
        assert "reached only from tests or from nothing" in finding.message

    def test_used_and_private_symbols_do_not_flag(self, tmp_path):
        messages = [
            finding.message for finding in analyze_project([_rl012_corpus(tmp_path)])
        ]
        assert not any("used_helper" in message for message in messages)
        assert not any("_private_scratch" in message for message in messages)

    def test_symbol_reached_only_from_a_test_module_flags(self, tmp_path):
        findings = analyze_project([_rl012_corpus(tmp_path)])
        (finding,) = [f for f in findings if "tests_only_helper" in f.message]
        assert finding.path.endswith("lib.py")
        assert finding.line == 16

    def test_symbol_named_only_in_all_flags(self, tmp_path):
        findings = analyze_project([_rl012_corpus(tmp_path)])
        (finding,) = [f for f in findings if "export_only_helper" in f.message]
        assert finding.path.endswith("exports.py")
        assert finding.line == 6

    def test_marked_oracle_keeps_what_it_builds(self, tmp_path):
        findings = analyze_project([_rl012_corpus(tmp_path)])
        assert not [f for f in findings if f.path.endswith("oracle.py")]


class TestSuppressionsAndSelection:
    def test_disable_comment_silences_a_project_finding(self, tmp_path):
        source = (FIXTURES / "rl009_bad.py").read_text(encoding="utf-8")
        silenced = source.replace(
            "return apply_supply(freq_mhz)",
            "return apply_supply(freq_mhz)  # repro-lint: disable=RL009",
        )
        target = tmp_path / "rl009_suppressed.py"
        target.write_text(silenced, encoding="utf-8")
        findings = analyze_project(
            [target], rules=get_project_rules(["RL009"])
        )
        assert findings == []

    def test_select_limits_the_rule_set(self):
        only_taint = get_project_rules(["RL010"])
        findings = analyze_project(
            [FIXTURES / "rl009_bad.py"], rules=only_taint
        )
        assert findings == []


class TestProjectCli:
    def test_project_mode_exit_codes(self, capsys):
        assert main(["--project", str(FIXTURES / "rl009_bad.py")]) == 1
        assert "RL009" in capsys.readouterr().out
        assert main(["--project", str(FIXTURES / "rl009_good.py")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_project_baseline_grandfathers_findings(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            json.dumps(
                {
                    "version": 1,
                    "entries": [
                        {
                            "path": "rl009_bad.py",
                            "rule": "RL009",
                            "reason": "fixture is deliberately broken",
                        }
                    ],
                }
            ),
            encoding="utf-8",
        )
        code = main(
            [
                "--project",
                str(FIXTURES / "rl009_bad.py"),
                "--baseline",
                str(baseline),
            ]
        )
        capsys.readouterr()
        assert code == 0

    def test_list_rules_includes_project_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RL009", "RL010", "RL011", "RL012"):
            assert rule_id in out


class TestSarif:
    def test_sarif_document_shape(self):
        findings = analyze_project([FIXTURES / "rl009_bad.py"])
        document = json.loads(format_sarif(findings, rules=PROJECT_RULES))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro.lint"
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        result = run["results"][0]
        assert result["ruleId"] == "RL009"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("rl009_bad.py")
        assert location["region"]["startLine"] == 11

    def test_cli_emits_sarif(self, capsys):
        code = main(
            ["--project", str(FIXTURES / "rl009_bad.py"), "--format", "sarif"]
        )
        assert code == 1
        document = json.loads(capsys.readouterr().out)
        assert document["runs"][0]["results"][0]["ruleId"] == "RL009"
