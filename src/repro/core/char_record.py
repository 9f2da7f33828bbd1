"""Characterization records: the fleet's one characterization path.

A fleet chip's idle → uBench characterization (paper Sec. III-B, Fig. 6)
is a pure function of the chip's probe-visible physics (preset codes,
step widths, protection headroom, stress curves), the characterizer's
RNG seed and parameters, and the workload suite — exactly the inputs
:func:`char_key` packs and hashes.  The fleet therefore never runs a
:class:`~repro.core.characterize.Characterizer`: every chip is served
from a *record* — the per-core limit outcomes plus a compact log of
every telemetry-visible operation — and :func:`replay_characterization`
turns a record into the live run's results, event stream and counters,
byte for byte, without running a single probe.

Records come from the persistent solve store, or, for the chips it does
not hold, from :func:`characterize_chunk`, which walks all of a fleet
chunk's cold chips at once and is tested against the per-core
:class:`~repro.core.characterize.Characterizer` walks.

Record layout (``"char-v2"`` content address, ``KIND_CHAR`` records)::

    <u32 layout> <u32 header_len> <header JSON, padded to 8 bytes> <ops>

The header holds the outcome tables (per-core idle outcomes and uBench
rollbacks per trial, total probe count, failure count) and the label /
workload string tables; ``ops`` is a packed array of 16-byte rows — one
per probe or rollback, in exact temporal order — that replay walks only
when an observability context actually captures events.  Dark runs skip
the ops entirely; metrics-only runs (pool workers) bulk-increment the
probe counters from the header.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections.abc import Iterator, Sequence
from itertools import chain

import numpy as np

from ..analysis.stats import summarize
from ..atm.failure import FailureModel
from ..fastpath.store import get_store
from ..obs.events import CpmStepEvent, RollbackEvent
from ..obs.runtime import get_obs
from ..rng import seeded_streams
from ..silicon.chipspec import ChipDraw
from ..workloads.base import IDLE
from ..workloads.ubench import UBENCH_SUITE
from .characterize import (
    IdleCharacterization,
    UbenchCharacterization,
    trial_stream_name,
)

#: Version of the payload layout below (bump on any byte-level change).
CHAR_LAYOUT = 1

#: Op codes of the telemetry log.
OP_PROBE = 0
OP_ROLLBACK = 1

#: One op: code, core index, workload index, a/b operands, slack.  For a
#: probe, ``a`` is the reduction under test, ``b`` the safe flag, and
#: ``slack`` the noisy margin the event reports; for a rollback, ``a``/``b``
#: are the from/to reductions.  16 bytes keeps a full fleet-chip log
#: (~360 probes at ``trials=4``) under 6 KiB.
OPS_DTYPE = np.dtype(
    [
        ("op", "u1"),
        ("core", "u1"),
        ("widx", "u1"),
        ("a", "u1"),
        ("b", "u1"),
        ("pad", "V3"),
        ("slack", "<f8"),
    ]
)

_PREFIX = struct.Struct("<II")  # layout, header length


def _pad8(n: int) -> int:
    return (-n) % 8


class CharRecorder:
    """Append-only log of the telemetry-visible characterization ops,
    plus the per-trial outcome tables replay rebuilds the results from.

    The log is kept as one list per :data:`OPS_DTYPE` column, extended a
    whole probe walk at a time, so :meth:`encode` fills each column of
    the packed array in one assignment.
    """

    __slots__ = (
        "_op", "_core", "_workload", "_a", "_b", "_slack",
        "idle_outcomes", "ubench_rollbacks",
    )

    def __init__(self):
        self._op: list[int] = []
        self._core: list[str] = []
        self._workload: list[str] = []
        self._a: list[int] = []
        self._b: list[int] = []
        self._slack: list[float] = []
        self.idle_outcomes: dict[str, list[int]] = {}
        self.ubench_rollbacks: dict[str, list[int]] = {}

    def record_probes(
        self, core_label: str, workload_name: str, steps, safe, slacks
    ) -> None:
        """Log a walk's probes in order: ``steps[i]`` measured ``slacks[i]``
        and was ``safe[i]``."""
        n = len(steps)
        self._op += [OP_PROBE] * n
        self._core += [core_label] * n
        self._workload += [workload_name] * n
        self._a += steps
        self._b += safe
        self._slack += slacks

    def record_rollback(
        self,
        core_label: str,
        workload_name: str,
        from_steps: int,
        to_steps: int,
    ) -> None:
        self._op.append(OP_ROLLBACK)
        self._core.append(core_label)
        self._workload.append(workload_name)
        self._a.append(from_steps)
        self._b.append(to_steps)
        self._slack.append(0.0)

    def record_idle_outcomes(self, core_label: str, outcomes) -> None:
        self.idle_outcomes[core_label] = [int(v) for v in outcomes]

    def record_ubench_rollbacks(self, core_label: str, rollbacks) -> None:
        self.ubench_rollbacks[core_label] = [int(v) for v in rollbacks]

    def encode(self, *, labels, probe_count: int) -> bytes:
        """Pack the log plus outcome tables into a store payload."""
        labels = list(labels)
        idle_outcomes = self.idle_outcomes
        ubench_rollbacks = self.ubench_rollbacks
        label_index = {label: i for i, label in enumerate(labels)}
        # Workload table in order of first appearance in the log.
        workloads = list(dict.fromkeys(self._workload))
        workload_index = {name: i for i, name in enumerate(workloads)}
        ops = np.zeros(len(self._op), dtype=OPS_DTYPE)
        ops["op"] = self._op
        ops["core"] = [label_index[label] for label in self._core]
        ops["widx"] = [workload_index[name] for name in self._workload]
        ops["a"] = self._a
        ops["b"] = self._b
        ops["slack"] = self._slack
        failures = int(np.count_nonzero((ops["op"] == OP_PROBE) & (ops["b"] == 0)))
        header = json.dumps(
            {
                "labels": labels,
                "workloads": workloads,
                "idle": {k: list(v) for k, v in idle_outcomes.items()},
                "rollbacks": {k: list(v) for k, v in ubench_rollbacks.items()},
                "probes": int(probe_count),
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


def decode_char(payload: bytes) -> dict | None:
    """Parse a stored characterization record; ``None`` on layout mismatch.

    The ops array is a zero-copy view over ``payload`` (which, served
    from the store, aliases the mmap), so decoding costs one JSON parse.
    """
    if len(payload) < _PREFIX.size:
        return None
    layout, header_len = _PREFIX.unpack_from(payload)
    if layout != CHAR_LAYOUT:
        return None
    start = _PREFIX.size
    ops_start = start + header_len + _pad8(start + header_len)
    if ops_start > len(payload):
        return None
    if (len(payload) - ops_start) % OPS_DTYPE.itemsize:
        return None
    try:
        # bytes() copies only the small JSON header; the ops view below
        # stays zero-copy (payload may be a memoryview over the mmap).
        header = json.loads(bytes(payload[start : start + header_len]))
    except ValueError:
        return None
    ops = np.frombuffer(payload, dtype=OPS_DTYPE, offset=ops_start)
    return {
        "labels": header["labels"],
        "workloads": header["workloads"],
        "idle": header["idle"],
        "rollbacks": header["rollbacks"],
        "probes": header["probes"],
        "failures": header["failures"],
        "ops": ops,
    }


def replay_characterization(
    record: dict, obs
) -> tuple[dict[str, IdleCharacterization], dict[str, UbenchCharacterization], int]:
    """Reproduce a recorded characterization's results and telemetry.

    Returns the same ``(idle, ubench, probe_count)`` triple the live
    idle → uBench stages produce, and emits exactly the telemetry a live
    run would have: per-probe ``CpmStepEvent`` and per-program
    ``RollbackEvent`` in recorded order when events are captured, and
    the ``probe.total`` / ``probe.failures`` counts whenever metrics are
    on (counters are plain sums, so one increment per record leaves the
    registry as one per probe would); nothing when observability is dark.
    """
    labels = record["labels"]
    if obs.events_enabled:
        workloads = record["workloads"]
        ops = record["ops"]
        # Python lists, not per-row structured access: the loop is per event.
        for code, core, widx, a, b, slack in zip(
            ops["op"].tolist(),
            ops["core"].tolist(),
            ops["widx"].tolist(),
            ops["a"].tolist(),
            ops["b"].tolist(),
            ops["slack"].tolist(),
        ):
            if code == OP_PROBE:
                obs.emit_new(
                    CpmStepEvent,
                    core_label=labels[core],
                    workload=workloads[widx],
                    reduction_steps=a,
                    safe=b != 0,
                    slack_ps=slack,
                )
            else:
                obs.emit(
                    RollbackEvent(
                        seq=0,
                        core_label=labels[core],
                        stage="ubench",
                        workload=workloads[widx],
                        from_steps=a,
                        to_steps=b,
                    )
                )
    if obs.enabled:
        metrics = obs.metrics
        metrics.counter("probe.total").inc(record["probes"])
        metrics.counter("probe.failures").inc(record["failures"])

    idle: dict[str, IdleCharacterization] = {}
    ubench: dict[str, UbenchCharacterization] = {}
    for label in labels:
        idle[label] = IdleCharacterization(
            core_label=label,
            distribution=summarize([int(v) for v in record["idle"][label]]),
        )
        ubench[label] = UbenchCharacterization(
            core_label=label,
            idle_limit=idle[label].idle_limit,
            rollback_distribution=summarize(
                [int(v) for v in record["rollbacks"][label]]
            ),
        )
    return idle, ubench, int(record["probes"])


def characterize_chunk(
    draws: Sequence[ChipDraw],
    seeds: Sequence[int],
    *,
    trials: int,
    repeats_per_step: int,
    noise_sigma_ps: float,
) -> Iterator[tuple[dict, bytes | None]]:
    """Characterize a fleet chunk's cold chips in one pass, from their draws.

    Chip ``draws[i]`` is walked exactly as a
    :class:`~repro.core.characterize.Characterizer` seeded ``seeds[i]``
    walks ``draws[i].materialize()`` — the idle stage on every core, then
    the uBench stage on every core, each trial on its own stream — and
    yields one ``(record, payload)`` pair per chip, in order, as soon as
    the chip's walks finish.  ``record`` has the :func:`decode_char`
    shape.  The op log is kept only when the observability context
    installed at the first ``next`` captures events or the store
    configured then is writable: then ``payload`` is the chip's encoded
    record and ``record`` is its decoding; otherwise ``payload``,
    ``record["workloads"]`` and ``record["ops"]`` are ``None``.

    No spec object is built.  The walks read one slack block
    (:func:`_slack_block`): every core's
    :meth:`~repro.silicon.chipspec.CoreSpec.slack_row` under each distinct
    stress, computed from the draws at once.  Nothing reads an idle
    stream after its walk, so every idle trial of the chunk runs in one
    array pass (:func:`_idle_trials`): one noise draw per trial added to
    its core's gathered slack row, the first failing probe of each trial
    found over the concatenation, and no generator rewind or failure-mode
    draw.  A uBench trial's three roll-back walks share one stream, so
    they run probe by probe (:func:`_ubench_trials`) over rows listed
    once per stress.  Streams are seeded in two batched passes, idle then
    uBench, and each generator is dropped once its trial is walked.
    """
    if not draws:
        return
    store = get_store()
    keep_ops = get_obs().events_enabled or (store is not None and store.writable)
    stresses = (IDLE.stress, *(program.stress for program in UBENCH_SUITE))
    presets = np.array(
        [preset for draw in draws for preset in draw.preset_codes], dtype=np.int64
    )
    block = _slack_block(draws, presets, stresses)
    slack, starts, idle_probes, idle_best, failed = _idle_trials(
        block[IDLE.stress],
        presets,
        draws,
        seeds,
        trials=trials,
        repeats=repeats_per_step,
        sigma=noise_sigma_ps,
    )
    ubench_streams = seeded_streams(_trial_streams("ubench", draws, seeds, trials))
    # One list per stress, as the uBench walks index Python floats; a
    # walk starts at its core's idle limit, so no column past the
    # chunk's largest idle outcome is read.
    reach = max(idle_best) + 1
    listed = {stress: block[stress][:, :reach].tolist() for stress in stresses[1:]}
    sample_mode = FailureModel().sample_mode
    first = 0  # the chip's first idle trial
    core_at = 0  # the chip's first core in the block
    for draw in draws:
        recorder = CharRecorder() if keep_ops else None
        labels = list(draw.labels)
        stop = first + trials * len(labels)
        idle = {
            label: idle_best[at : at + trials]
            for label, at in zip(labels, range(first, stop, trials))
        }
        probes = sum(idle_probes[first:stop])
        failures = sum(failed[first:stop])
        if recorder is not None:
            for k in range(first, stop):
                count = idle_probes[k]
                slacks = slack[starts[k] : starts[k] + count].tolist()
                recorder.record_probes(
                    labels[(k - first) // trials],
                    IDLE.name,
                    [1 + j // repeats_per_step for j in range(count)],
                    [value >= 0.0 for value in slacks],
                    slacks,
                )
        first = stop
        rollbacks = {}
        for core, label in enumerate(labels, start=core_at):
            rollbacks[label], core_probes, core_failures = _ubench_trials(
                label,
                [listed[program.stress][core] for program in UBENCH_SUITE],
                min(idle[label]),
                ubench_streams,
                sample_mode,
                trials=trials,
                repeats=repeats_per_step,
                sigma=noise_sigma_ps,
                recorder=recorder,
            )
            probes += core_probes
            failures += core_failures
        core_at += len(labels)
        if recorder is None:
            record = {
                "labels": labels,
                "workloads": None,
                "idle": idle,
                "rollbacks": rollbacks,
                "probes": probes,
                "failures": failures,
                "ops": None,
            }
            yield record, None
        else:
            for label in labels:
                recorder.record_idle_outcomes(label, idle[label])
                recorder.record_ubench_rollbacks(label, rollbacks[label])
            payload = recorder.encode(labels=labels, probe_count=probes)
            yield decode_char(payload), payload


def _slack_block(draws, presets, stresses) -> dict[float, np.ndarray]:
    """Every core's slack row under each distinct stress in ``stresses``.

    Cores run chip by chip, core by core, one row each; ``presets`` holds
    their preset codes, and a row has one column per reduction up to the
    chunk's largest preset.  Column ``k <= preset`` of a core's row is
    ``CoreSpec.slack_row(stress)[k]`` bit for bit: the inserted-delay
    prefix sums accumulate left to right from 0.0 (``np.add.accumulate``,
    as ``CoreSpec`` adds them), and each element is ``headroom - (cum[p] -
    cum[p - k]) - requirement`` in ``slack_row``'s order, with the
    requirement interpolated as :func:`_requirements` does.  Columns past
    a core's preset repeat its last element; no walk reads them.
    """
    widths = np.array([row for draw in draws for row in draw.step_widths_ps])
    curves = np.array([curve for draw in draws for curve in draw.stress_curves])
    headroom = np.array([ps for draw in draws for ps in draw.headroom_ps])[:, None]
    steps = np.zeros((presets.size, widths.shape[1] + 1))
    steps[:, 1:] = widths
    cum = np.add.accumulate(steps, axis=1)
    # Row k of a core reads cum[p - k]; past the preset it clamps to cum[0].
    reductions = np.arange(presets.max() + 1)
    lower = np.take_along_axis(
        cum, np.maximum(presets[:, None] - reductions, 0), axis=1
    )
    removed = cum[np.arange(presets.size), presets][:, None] - lower
    return {
        stress: headroom - removed - _requirements(curves, stress)[:, None]
        for stress in dict.fromkeys(stresses)
    }


def _requirements(curves: np.ndarray, stress: float) -> np.ndarray:
    """``CoreSpec.required_protection_ps(stress)`` of every core, bit for bit.

    ``curves`` holds each core's ``(stress, ps)`` anchors.  Inside a
    curve this is ``np.interp``: an on-anchor stress returns the anchor's
    value, any other ``slope * (stress - x0) + y0`` over its segment;
    past the last anchor it extrapolates ``y1 + slope * (stress - x1)``
    along the final segment.
    """
    xs, ys = curves[..., 0], curves[..., 1]
    cores = np.arange(len(curves))
    # np.interp's segment: the last anchor at or below the stress, kept
    # off the final anchor so the segment has a right end.
    j = np.minimum(np.count_nonzero(xs <= stress, axis=1), xs.shape[1] - 1) - 1
    x0, x1 = xs[cores, j], xs[cores, j + 1]
    y0, y1 = ys[cores, j], ys[cores, j + 1]
    slope = (y1 - y0) / (x1 - x0)
    return np.where(
        stress > x1,
        y1 + slope * (stress - x1),
        np.where(
            stress == x1, y1, np.where(stress == x0, y0, slope * (stress - x0) + y0)
        ),
    )


def _idle_trials(row_block, presets, draws, seeds, *, trials, repeats, sigma):
    """Every idle trial of the chunk as one array pass.

    ``row_block`` holds every core's idle slack row and ``presets`` its
    preset code.  Trials are ordered chip by chip, core by core, trial by
    trial.  Returns the concatenated noisy slack of every probe a trial
    could run, and per trial its start in that array, its probe count, its
    outcome (the last reduction every repeat passed) and whether it ended
    at a failing probe.
    """
    # Probe j of a trial runs at reduction 1 + j // repeats, so the
    # trial's noise-free slacks are its core's row from reduction 1 up to
    # the preset, each element repeated: one copy of the repeated row per
    # trial, cut at the preset.
    rows = np.repeat(np.repeat(row_block[:, 1:], repeats, axis=1), trials, axis=0)
    lengths = np.repeat(presets * repeats, trials)
    slack = rows[np.arange(rows.shape[1]) < lengths[:, None]]
    starts = np.cumsum(lengths) - lengths
    if sigma > 0.0:
        streams = seeded_streams(_trial_streams("idle", draws, seeds, trials))
        for at, size in zip(starts.tolist(), lengths.tolist()):
            trial = slack[at : at + size]
            np.add(trial, next(streams).normal(0.0, sigma, size=size), out=trial)
    bad = np.flatnonzero(~(slack >= 0.0))
    first_bad = np.append(bad, slack.size)[bad.searchsorted(starts)] - starts
    failed = first_bad < lengths
    return (
        slack,
        starts.tolist(),
        np.where(failed, first_bad + 1, lengths).tolist(),
        (np.where(failed, first_bad, lengths) // repeats).tolist(),
        failed.tolist(),
    )


def _trial_streams(stage: str, draws, seeds, trials: int) -> list[tuple[int, str]]:
    """``(seed, stream name)`` of every trial of ``stage``, chip by chip,
    core by core, trial by trial."""
    return [
        (seed, trial_stream_name(stage, label, trial))
        for seed, draw in zip(seeds, draws)
        for label in draw.labels
        for trial in range(trials)
    ]


def _ubench_trials(
    label: str,
    program_rows,
    idle_limit: int,
    streams,
    sample_mode,
    *,
    trials,
    repeats,
    sigma,
    recorder,
) -> tuple[list[int], int, int]:
    """One core's uBench trials, each on the next generator of ``streams``.

    ``program_rows`` holds the core's slack row under each program of
    :data:`~repro.workloads.ubench.UBENCH_SUITE`, as lists.  The walks of
    :meth:`SafetyProbe.rollback_to_safe
    <repro.atm.core_sim.SafetyProbe.rollback_to_safe>` in the order
    :meth:`Characterizer.characterize_ubench
    <repro.core.characterize.Characterizer.characterize_ubench>` runs them,
    including the failure-mode draw (``sample_mode``, a
    :meth:`FailureModel.sample_mode <repro.atm.failure.FailureModel.sample_mode>`)
    after each failing probe, because it positions the next noise draw.
    Returns the per-trial rollbacks, the probe count and the failure count.
    """
    rollbacks = []
    probes = failures = 0
    for _ in range(trials):
        rng = next(streams)
        normal = rng.normal
        worst_safe = idle_limit
        for program, row in zip(UBENCH_SUITE, program_rows):
            steps_run: list[int] = []
            slacks: list[float] = []
            safe_at = 0
            for steps in range(worst_safe, -1, -1):
                for _ in range(repeats):
                    value = row[steps]
                    if sigma > 0.0:
                        value += normal(0.0, sigma)
                    steps_run.append(steps)
                    slacks.append(value)
                    if not value >= 0.0:
                        sample_mode(rng, -value)
                        failures += 1
                        break
                else:
                    safe_at = steps
                    break
            probes += len(slacks)
            if recorder is not None:
                recorder.record_probes(
                    label,
                    program.name,
                    steps_run,
                    [value >= 0.0 for value in slacks],
                    slacks,
                )
                if safe_at < worst_safe:
                    recorder.record_rollback(label, program.name, worst_safe, safe_at)
            worst_safe = min(worst_safe, safe_at)
        rollbacks.append(idle_limit - worst_safe)
    return rollbacks, probes, failures


#: Version tag leading every characterization key's hashed bytes.
_KEY_VERSION = b"char-v2"


def char_key(
    draw,
    *,
    seed: int,
    trials: int,
    repeats_per_step: int,
    noise_sigma_ps: float,
    workloads,
) -> bytes:
    """Content address of one chip's idle → uBench characterization.

    Hashes everything the probe outcomes depend on: the characterizer's
    RNG seed and parameters, the workload suite (names and stress
    levels), and each core's probe-visible physics — label (RNG stream
    names and event payloads include it), preset code, step widths,
    protection headroom, and stress curve.  The key *is* those inputs,
    so a stored record can never be stale: any change to the physics or
    the procedure produces a different address.

    The inputs are packed, not printed: the counts, preset codes, the
    byte length of each string and the length of each core's tables lead
    as little-endian int64, every float follows as its little-endian
    float64 bytes, and the strings close as UTF-8 (the seed as decimal,
    so any size packs).
    """
    workloads = tuple(workloads)
    text = [
        str(seed).encode(),
        *(workload.name.encode() for workload in workloads),
        *(label.encode() for label in draw.labels),
    ]
    ints = (
        trials,
        repeats_per_step,
        len(workloads),
        len(draw.labels),
        *map(len, text),
        *draw.preset_codes,
        *map(len, draw.step_widths_ps),
        *map(len, draw.stress_curves),
    )
    floats = (
        noise_sigma_ps,
        *(workload.stress for workload in workloads),
        *draw.headroom_ps,
        *chain.from_iterable(draw.step_widths_ps),
        *chain.from_iterable(chain.from_iterable(draw.stress_curves)),
    )
    packed = struct.pack(f"<{len(ints)}q{len(floats)}d", *ints, *floats)
    return hashlib.sha256(_KEY_VERSION + packed + b"".join(text)).digest()
