"""The per-chip fleet characterization path, kept as the reference for tests.

A fleet chip is characterized as its own
:class:`~repro.core.characterize.Characterizer`, seeded with the chip's
seed, would characterize it: the idle stage on every core, then the
uBench stage on every core, with every trial stream created by
``prepare_streams``.  Run under an event-capturing context, that walk
yields everything the fleet serves a chip from — the results, the probe
count, the telemetry and the counters — and its captured events, logged
in order, are the chip's characterization record.
:func:`repro.core.char_record.characterize_chunk` plus
:func:`~repro.core.char_record.replay_characterization` must match it
exactly.
"""

from __future__ import annotations

from repro.core.char_record import CharRecorder
from repro.core.characterize import Characterizer
from repro.obs.events import CpmStepEvent, RollbackEvent
from repro.obs.runtime import Observability, observed
from repro.obs.sinks import NullSink, RingBufferSink
from repro.rng import RngStreams

#: Workload runs per configuration step in fleet characterization.
REPEATS_PER_STEP = 2


def observability(context: str) -> Observability:
    """A fresh context: ``dark`` (no sink), ``metrics`` (a metrics-only
    sink) or ``events`` (an event buffer)."""
    sink = {
        "dark": None,
        "metrics": NullSink(),
        "events": RingBufferSink(capacity=1 << 20),
    }[context]
    return Observability(sink)


def characterize_chip(chip, chip_seed: int, *, trials: int, noise_sigma_ps: float):
    """Characterize ``chip`` one core and one trial at a time.

    Returns a dict of the stage results keyed by core label (``idle``,
    ``ubench``), the probe count (``probes``), the captured
    ``CpmStepEvent`` / ``RollbackEvent`` stream (``events``), the
    registry state (``metrics``) and the encoded record (``payload``).
    """
    obs = observability("events")
    with observed(obs):
        characterizer = Characterizer(
            RngStreams(chip_seed),
            trials=trials,
            repeats_per_step=REPEATS_PER_STEP,
            noise_sigma_ps=noise_sigma_ps,
        )
        characterizer.prepare_streams(chip.cores, ("idle", "ubench"))
        idle = {
            core.label: characterizer.characterize_idle(core) for core in chip.cores
        }
        ubench = {
            core.label: characterizer.characterize_ubench(
                core, idle[core.label].idle_limit
            )
            for core in chip.cores
        }
    events = obs.sink.events()
    probes = characterizer.total_probe_count
    return {
        "idle": idle,
        "ubench": ubench,
        "probes": probes,
        "events": events,
        "metrics": obs.metrics.to_state(),
        "payload": _record(chip, idle, ubench, probes, events),
    }


def _record(chip, idle, ubench, probes: int, events) -> bytes:
    """The characterization record the captured walk amounts to."""
    recorder = CharRecorder()
    for event in events:
        if isinstance(event, CpmStepEvent):
            recorder.record_probes(
                event.core_label,
                event.workload,
                [event.reduction_steps],
                [event.safe],
                [event.slack_ps],
            )
        else:
            assert isinstance(event, RollbackEvent)
            recorder.record_rollback(
                event.core_label, event.workload, event.from_steps, event.to_steps
            )
    labels = [core.label for core in chip.cores]
    for label in labels:
        recorder.record_idle_outcomes(label, idle[label].distribution.values)
        recorder.record_ubench_rollbacks(
            label, ubench[label].rollback_distribution.values
        )
    return recorder.encode(labels=labels, probe_count=probes)
