"""Meta-test: the linter gates its own repository.

``src/repro/`` must stay free of RL001-RL007 findings with *no* baseline
— this is the tier-1 enforcement point for the determinism, physics, and
error-handling invariants.  The canary test pins the regression that
motivated the pass: ``ablation_sync`` once built ``np.random.default_rng``
directly (bypassing the named streams), and re-introducing that line must
fail RL001.
"""

from pathlib import Path

from repro.lint import lint_paths, lint_source

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_REPRO = REPO_ROOT / "src" / "repro"


class TestSelfClean:
    def test_src_repro_has_zero_findings(self):
        findings = lint_paths([SRC_REPRO])
        rendered = "\n".join(finding.render() for finding in findings)
        assert findings == [], f"lint findings in src/repro:\n{rendered}"

    def test_tests_tree_has_zero_findings(self):
        findings = lint_paths([REPO_ROOT / "tests"])
        rendered = "\n".join(finding.render() for finding in findings)
        assert findings == [], f"lint findings in tests:\n{rendered}"

    def test_project_rules_have_zero_findings(self):
        """RL009-RL012 over src with the CLI's default root-only paths: empty."""
        from repro.lint.cli import PROJECT_DEFAULT_ROOT_ONLY
        from repro.lint.dataflow.project import analyze_project

        findings = analyze_project(
            [REPO_ROOT / "src"],
            root_only_paths=[REPO_ROOT / path for path in PROJECT_DEFAULT_ROOT_ONLY],
        )
        rendered = "\n".join(finding.render() for finding in findings)
        assert findings == [], f"project findings in src:\n{rendered}"


class TestRegressionCanary:
    def test_reintroducing_direct_default_rng_fails_rl001(self):
        path = SRC_REPRO / "experiments" / "ablation_sync.py"
        source = path.read_text(encoding="utf-8")
        assert "np.random.default_rng" not in source
        regressed = source.replace(
            'streams.fresh("experiments.ablation_sync")',
            "np.random.default_rng(seed)",
        )
        assert regressed != source
        findings = lint_source(regressed, "src/repro/experiments/ablation_sync.py")
        assert any(finding.rule_id == "RL001" for finding in findings)
