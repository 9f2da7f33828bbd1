"""Characterization replay records for the persistent solve store.

Characterization is the largest stage of fleet onboarding (about 1.6 ms
of the ~2.7 ms a chip costs end to end at ``trials=4``, single-threaded on
a 2-vCPU x86-64 VM): hundreds of probe runs walk each core's limits, each
trial seeding its own RNG stream and drawing noise for every probe.  The
probe *outcomes*, however, are a pure function of the chip's
probe-visible physics (preset codes, step widths, protection headroom,
stress curves), the characterizer's RNG seed and parameters, and the
workload suite — exactly the inputs :func:`char_key` packs and hashes.
So a finished characterization can be stored
once and *replayed*: the record carries the per-core limit outcomes plus
a compact log of every telemetry-visible operation, and replay
reproduces the live run's event stream and counters byte for byte
without running a single probe.

Record layout (``"char-v2"`` content address, ``KIND_CHAR`` records)::

    <u32 layout> <u32 header_len> <header JSON, padded to 8 bytes> <ops>

The header holds the outcome tables (per-core idle outcomes and uBench
rollbacks per trial, total probe count, failure count) and the label /
workload string tables; ``ops`` is a packed array of 16-byte rows — one
per probe or rollback, in exact temporal order — that replay walks only
when an observability context actually captures events.  Dark runs skip
the ops entirely; metrics-only runs (pool workers) bulk-increment the
probe counters from the header.

The op log is recorded by :class:`CharRecorder`, which
:class:`repro.core.characterize.Characterizer` and
:class:`repro.atm.core_sim.SafetyProbe` accept as an optional hook; the
hook is only threaded on the fleet cold path, so single-chip and
testbed characterization are untouched.
"""

from __future__ import annotations

import hashlib
import json
import struct
from itertools import chain

import numpy as np

from ..analysis.stats import summarize
from ..obs.events import CpmStepEvent, RollbackEvent
from .characterize import IdleCharacterization, UbenchCharacterization

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
    ``RollbackEvent`` in recorded order when events are captured, bulk
    ``probe.total`` / ``probe.failures`` increments when only metrics
    are on, nothing when observability is dark.
    """
    labels = record["labels"]
    if obs.events_enabled:
        workloads = record["workloads"]
        metrics = obs.metrics
        total = metrics.counter("probe.total")
        failures = metrics.counter("probe.failures")
        for op in record["ops"]:
            if op["op"] == OP_PROBE:
                obs.emit_new(
                    CpmStepEvent,
                    core_label=labels[op["core"]],
                    workload=workloads[op["widx"]],
                    reduction_steps=int(op["a"]),
                    safe=bool(op["b"]),
                    slack_ps=float(op["slack"]),
                )
                total.inc()
                if not op["b"]:
                    failures.inc()
            else:
                obs.emit(
                    RollbackEvent(
                        seq=0,
                        core_label=labels[op["core"]],
                        stage="ubench",
                        workload=workloads[op["widx"]],
                        from_steps=int(op["a"]),
                        to_steps=int(op["b"]),
                    )
                )
    elif obs.enabled:
        # Counters are plain sums, so bulk increments leave the merged
        # registry byte-identical to the per-probe path.
        metrics = obs.metrics
        if record["probes"]:
            metrics.counter("probe.total").inc(record["probes"])
        if record["failures"]:
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
