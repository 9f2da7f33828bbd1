"""Golden test: the fig11 deployment flow's RollbackEvent stream.

The expected sequence is derivable from first principles: the testbed's
thread-worst configurations survive the stress battery (fig11's own
headline check), so the only rollbacks are the vendor's deploy-stage
safety margins — per chip, per rollback setting in (1, 2), one event per
core walking ``thread_worst -> max(0, thread_worst - rollback)``, in the
experiment's chip-major / rollback-minor / core-order loop.  Any drift in
the deployment flow, the event pipeline, or the seeding shows up as a
diff against this oracle.
"""

from repro.experiments.common import run_observed
from repro.obs.analyze.diff import diff_manifests, diff_streams
from repro.obs.events import RollbackEvent
from repro.obs.sinks import read_jsonl
from repro.silicon.chipspec import (
    CORES_PER_CHIP,
    TESTBED_THREAD_WORST_LIMITS,
)

SEED = 2019


def expected_rollback_sequence() -> list[tuple[str, str, int, int]]:
    """(core_label, stage, from_steps, to_steps) in emission order."""
    expected = []
    for chip_index in (0, 1):
        for rollback in (1, 2):  # rollback 0 deploys the validated limit
            for core_index in range(CORES_PER_CHIP):
                worst = TESTBED_THREAD_WORST_LIMITS[
                    chip_index * CORES_PER_CHIP + core_index
                ]
                expected.append(
                    (
                        f"P{chip_index}C{core_index}",
                        "deploy",
                        worst,
                        max(0, worst - rollback),
                    )
                )
    return expected


class TestFig11Golden:
    def test_rollback_event_sequence_matches_oracle(self, tmp_path):
        run = run_observed("fig11", seed=SEED, out_dir=tmp_path)
        assert run.result.metric("all_cores_survived_battery") == 1.0

        rollbacks = [
            event
            for event in read_jsonl(run.events_path)
            if isinstance(event, RollbackEvent)
        ]
        # Battery survival means zero "stress"-stage back-offs; every
        # rollback is the vendor's deploy-stage margin.
        observed = [
            (event.core_label, event.stage, event.from_steps, event.to_steps)
            for event in rollbacks
        ]
        assert observed == expected_rollback_sequence()

    def test_same_seed_runs_are_byte_identical(self, tmp_path):
        first = run_observed("fig11", seed=SEED, out_dir=tmp_path / "a")
        second = run_observed("fig11", seed=SEED, out_dir=tmp_path / "b")
        # On failure the analyze layer pinpoints the first diverging seq
        # and field instead of an opaque byte mismatch.
        delta = diff_streams(first.events_path, second.events_path)
        assert delta.identical, (
            f"fig11 same-seed event streams diverged:\n{delta.render()}"
        )
        manifest_diff = diff_manifests(first.manifest_path, second.manifest_path)
        assert manifest_diff.identical, (
            f"fig11 same-seed manifests drifted:\n{manifest_diff.render()}"
        )
        # The byte-level oracle still holds after the pinpointed checks.
        assert (
            first.events_path.read_bytes() == second.events_path.read_bytes()
        )
        assert (
            first.manifest_path.read_bytes()
            == second.manifest_path.read_bytes()
        )

    def test_manifest_records_the_stream(self, tmp_path):
        run = run_observed("fig11", seed=SEED, out_dir=tmp_path)
        assert run.manifest.experiment_id == "fig11"
        assert run.manifest.seed == SEED
        assert run.manifest.event_count == run.event_count > 0
        assert len(run.manifest.events_sha256) == 64
        assert run.manifest.result_metrics == run.result.metrics
        assert "probe.total" in run.manifest.metrics_summary
