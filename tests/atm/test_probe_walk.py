"""The batched probe walks against the per-probe reference walk.

``SafetyProbe.max_safe_reduction`` draws a trial's noise in one call and
rewinds the generator to the prefix it used; ``rollback_to_safe`` loops
over the cached slack row.  Both must be indistinguishable from probing
one run at a time (:mod:`tests.atm.scalar_walk`): same results, probe
counts, generator state, events and counters, in dark, metrics-only and
event-capturing contexts.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atm.core_sim import SafetyProbe
from repro.obs.events import event_to_dict
from repro.obs.runtime import Observability, observed
from repro.obs.sinks import NullSink, RingBufferSink
from repro.silicon import power7plus_testbed, sample_chip
from repro.workloads.base import IDLE
from repro.workloads.registry import realistic_applications
from repro.workloads.ubench import UBENCH_SUITE

from .scalar_walk import ScalarSafetyProbe, scalar_slack_ps

CORES = (
    power7plus_testbed().all_cores
    + sample_chip(7, chip_id="P0").cores
    + sample_chip(1007, chip_id="P1").cores
)
WORKLOADS = (IDLE, *UBENCH_SUITE, *realistic_applications())
CONTEXTS = ("dark", "metrics", "events")

#: One call on the probe: (kind, workload index, start fraction, repeats).
calls = st.tuples(
    st.sampled_from(("max_safe_reduction", "rollback_to_safe", "probe")),
    st.integers(min_value=0, max_value=len(WORKLOADS) - 1),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from((1, 2, 3)),
)


def _run(probe_cls, core, plan, *, seed, sigma, context):
    """Run ``plan`` on one probe in ``context``; everything observable."""
    rng = np.random.default_rng(seed)
    probe = probe_cls(rng, noise_sigma_ps=sigma)
    sink = {"dark": None, "metrics": NullSink(), "events": RingBufferSink()}[context]
    obs = Observability(sink)
    results = []
    with observed(obs):
        for kind, workload_index, fraction, repeats in plan:
            workload = WORKLOADS[workload_index]
            start = round(fraction * core.preset_code)
            if kind == "probe":
                result = probe.probe(core, start, workload)
                results.append(getattr(result, "safe", result))
            else:
                results.append(
                    getattr(probe, kind)(
                        core, workload, start=start, repeats_per_step=repeats
                    )
                )
    return {
        "results": results,
        "probe_count": probe.probe_count,
        "state": rng.bit_generator.state,
        "events": [event_to_dict(e) for e in sink.events()]
        if context == "events"
        else None,
        "metrics": obs.metrics.to_state(),
    }


class TestBatchedWalkMatchesScalar:
    @settings(max_examples=150, deadline=None)
    @given(
        core_index=st.integers(min_value=0, max_value=len(CORES) - 1),
        plan=st.lists(calls, min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sigma=st.sampled_from((0.0, 0.1, 2.0)),
        context=st.sampled_from(CONTEXTS),
    )
    def test_walks_are_indistinguishable(
        self, core_index, plan, seed, sigma, context
    ):
        core = CORES[core_index]
        kwargs = {"seed": seed, "sigma": sigma, "context": context}
        batched = _run(SafetyProbe, core, plan, **kwargs)
        scalar = _run(ScalarSafetyProbe, core, plan, **kwargs)
        assert batched == scalar

    @pytest.mark.parametrize("context", CONTEXTS)
    def test_characterization_sized_trials(self, context):
        # Idle walk then the three uBench rollbacks, as the fleet runs a
        # trial, repeated on one generator across every testbed core.
        for core in CORES[:16]:
            plan = [("max_safe_reduction", 0, 0.0, 2)] + [
                ("rollback_to_safe", 1 + i, 0.6, 2) for i in range(3)
            ]
            kwargs = {"seed": 2019, "sigma": 0.1, "context": context}
            assert _run(SafetyProbe, core, plan, **kwargs) == _run(
                ScalarSafetyProbe, core, plan, **kwargs
            )


class TestSlackRow:
    @settings(max_examples=60, deadline=None)
    @given(
        core_index=st.integers(min_value=0, max_value=len(CORES) - 1),
        workload_index=st.integers(min_value=0, max_value=len(WORKLOADS) - 1),
    )
    def test_row_is_the_scalar_expression(self, core_index, workload_index):
        core = CORES[core_index]
        stress = WORKLOADS[workload_index].stress
        row = core.slack_row(stress)
        assert len(row) == core.preset_code + 1
        for steps in range(core.preset_code + 1):
            expected = scalar_slack_ps(core, steps, stress)
            assert row[steps] == expected
            assert core.margin_slack_ps(steps, stress) == expected

    def test_row_is_read_only_and_cached(self):
        core = CORES[0]
        row = core.slack_row(0.25)
        assert core.slack_row(0.25) is row
        with pytest.raises(ValueError):
            row[0] = 0.0
