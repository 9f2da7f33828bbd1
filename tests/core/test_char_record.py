"""CharRecorder's column-wise encoding against the row-wise layout.

``encode`` fills each ``OPS_DTYPE`` column in one assignment; the payload
must be byte-for-byte what writing the log one structured row at a time
produces (``CHAR_LAYOUT`` 1), so records written before and after read
back the same.
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.char_record import (
    _PREFIX,
    CHAR_LAYOUT,
    OP_PROBE,
    OP_ROLLBACK,
    OPS_DTYPE,
    CharRecorder,
    _pad8,
    characterize_chunk,
)
from repro.obs.events import CpmStepEvent
from repro.obs.runtime import Observability, observed
from repro.obs.sinks import NullSink, RingBufferSink
from repro.silicon.chipspec import draw_chip

from .chip_oracle import characterize_chip


class RowLog(CharRecorder):
    """A recorder that also keeps every op as one row tuple."""

    __slots__ = ("rows",)

    def __init__(self):
        super().__init__()
        self.rows = []

    def record_probes(self, core_label, workload_name, steps, safe, slacks):
        super().record_probes(core_label, workload_name, steps, safe, slacks)
        self.rows += [
            (OP_PROBE, core_label, workload_name, a, 1 if ok else 0, slack)
            for a, ok, slack in zip(steps, safe, slacks)
        ]

    def record_rollback(self, core_label, workload_name, from_steps, to_steps):
        super().record_rollback(core_label, workload_name, from_steps, to_steps)
        self.rows.append(
            (OP_ROLLBACK, core_label, workload_name, from_steps, to_steps, 0.0)
        )


def encode_rows(rows, *, labels, idle, rollbacks, probe_count) -> bytes:
    """The layout-1 payload built one structured row at a time."""
    label_index = {label: i for i, label in enumerate(labels)}
    workloads: list[str] = []
    workload_index: dict[str, int] = {}
    ops = np.zeros(len(rows), dtype=OPS_DTYPE)
    failures = 0
    for row, (op, label, workload, a, b, slack) in enumerate(rows):
        widx = workload_index.get(workload)
        if widx is None:
            widx = workload_index[workload] = len(workloads)
            workloads.append(workload)
        ops[row]["op"] = op
        ops[row]["core"] = label_index[label]
        ops[row]["widx"] = widx
        ops[row]["a"] = a
        ops[row]["b"] = b
        ops[row]["slack"] = slack
        if op == OP_PROBE and not b:
            failures += 1
    header = json.dumps(
        {
            "labels": list(labels),
            "workloads": workloads,
            "idle": idle,
            "rollbacks": rollbacks,
            "probes": probe_count,
            "failures": failures,
        },
        separators=(",", ":"),
        sort_keys=True,
    ).encode()
    pad = _pad8(_PREFIX.size + len(header))
    return (
        _PREFIX.pack(CHAR_LAYOUT, len(header))
        + header
        + b"\x00" * pad
        + ops.tobytes()
    )


def _row_encoding(recorder: RowLog, labels, probe_count) -> bytes:
    return encode_rows(
        recorder.rows,
        labels=labels,
        idle=recorder.idle_outcomes,
        rollbacks=recorder.ubench_rollbacks,
        probe_count=probe_count,
    )


class TestColumnEncoding:
    def test_live_characterization_payload(self):
        # A real characterization log: the chunk pass's record against one
        # row per event of the per-chip walk.
        draw = draw_chip(7, chip_id="P0")
        with observed(Observability(NullSink())):
            ((record, payload),) = characterize_chunk(
                [draw], [2019], trials=4, repeats_per_step=2, noise_sigma_ps=0.1
            )
        assert payload is None  # metrics-only: no op log
        with observed(Observability(RingBufferSink())):
            ((record, payload),) = characterize_chunk(
                [draw], [2019], trials=4, repeats_per_step=2, noise_sigma_ps=0.1
            )
        chip = draw.materialize()
        live = characterize_chip(chip, 2019, trials=4, noise_sigma_ps=0.1)
        rows = [
            (OP_PROBE, e.core_label, e.workload, e.reduction_steps, e.safe, e.slack_ps)
            if isinstance(e, CpmStepEvent)
            else (OP_ROLLBACK, e.core_label, e.workload, e.from_steps, e.to_steps, 0.0)
            for e in live["events"]
        ]
        labels = [core.label for core in chip.cores]
        assert payload == encode_rows(
            rows,
            labels=labels,
            idle=record["idle"],
            rollbacks=record["rollbacks"],
            probe_count=record["probes"],
        )
        assert len(record["ops"]) == len(rows)
        assert any(row[0] == OP_ROLLBACK for row in rows)

    def test_empty_log(self):
        recorder = RowLog()
        assert recorder.encode(labels=["P0C0"], probe_count=0) == _row_encoding(
            recorder, ["P0C0"], 0
        )

    @settings(max_examples=60, deadline=None)
    @given(
        walks=st.lists(
            st.tuples(
                st.booleans(),  # probe walk or rollback
                st.integers(min_value=0, max_value=3),  # core
                st.sampled_from(["idle", "coremark", "daxpy", "stream"]),
                st.lists(
                    st.tuples(
                        st.integers(min_value=0, max_value=30),
                        st.booleans(),
                        st.floats(allow_nan=False, width=64),
                    ),
                    min_size=1,
                    max_size=6,
                ),
            ),
            max_size=12,
        )
    )
    def test_any_log_matches_row_encoding(self, walks):
        labels = ["P0C0", "P0C1", "P0C2", "P0C3"]
        recorder = RowLog()
        for is_probe, core, workload, probes in walks:
            if is_probe:
                steps, safe, slacks = (list(column) for column in zip(*probes))
                recorder.record_probes(labels[core], workload, steps, safe, slacks)
            else:
                recorder.record_rollback(
                    labels[core], workload, probes[0][0], probes[-1][0]
                )
        recorder.record_idle_outcomes("P0C0", [3, 4])
        recorder.record_ubench_rollbacks("P0C0", [0, 1])
        assert recorder.encode(labels=labels, probe_count=7) == _row_encoding(
            recorder, labels, 7
        )
