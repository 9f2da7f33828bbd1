"""Layer spans for the end-to-end benchmark, recorded from outside ``repro``.

A traced run wraps the public entry points of each layer (the
:data:`TAPS` table) so every call records a span: name, start, end,
parent and the harness op it ran under.  Self time — a span's duration
minus the time its child spans cover — is folded online per span name,
so it is exact however many spans the run produces; the span log itself
is kept in memory up to :data:`MAX_KEPT_SPANS` and written as JSON when
the run ends.

Functions that other modules import by name (``solve_chips_cached`` is
bound in both ``fastpath.population`` and ``core.fleet``) are replaced in
every loaded ``repro`` module that binds them, and :meth:`Taps.remove`
puts every original back, including bindings made while the taps were
installed.  All clock reads go through
:func:`repro.obs.profiling.wall_clock_s`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import types
from array import array
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from repro.obs.profiling import wall_clock_s

#: Spans kept in the in-memory log; later spans still count toward self
#: time and call counts but are not written out.
MAX_KEPT_SPANS = 100_000

#: Attribute marking a wrapper installed by :class:`Taps`.
TAP_MARK = "__e2e_tap__"


class SpanRecorder:
    """In-memory span log with online per-name self time."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts: Counter = Counter()
        #: Harness op id stamped on every span opened from now on.
        self.op = -1
        self.dropped = 0
        self._stack: list[list] = []  # [name id, start, child seconds, log index]
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")

    def name_id(self, name: str) -> int:
        """Stable integer id of a span name (registered on first use)."""
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return found

    def enter(self, name_id: int) -> None:
        start = wall_clock_s()
        index = len(self._name)
        if index < MAX_KEPT_SPANS:
            self._name.append(name_id)
            self._start.append(start)
            self._end.append(start)
            self._parent.append(self._stack[-1][3] if self._stack else -1)
            self._op.append(self.op)
        else:
            index = -1
            self.dropped += 1
        self._stack.append([name_id, start, 0.0, index])

    def exit(self) -> None:
        end = wall_clock_s()
        name_id, start, child_s, index = self._stack.pop()
        duration = end - start
        self.self_s[name_id] += duration - child_s
        self.calls[name_id] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if index >= 0:
            self._end[index] = end

    def span(self, name: str) -> "_Span":
        """Context manager recording one span (harness-side boundaries)."""
        return _Span(self, self.name_id(name))

    def self_time(self, name: str) -> float:
        found = self._ids.get(name)
        return self.self_s[found] if found is not None else 0.0

    def to_dict(self) -> dict:
        """JSON document: per-name totals plus the kept span log."""
        return {
            "kind": "e2e_spans",
            "fields": ["name", "start_s", "end_s", "parent", "op"],
            "spans": [
                [self.names[n], s, e, p, o]
                for n, s, e, p, o in zip(
                    self._name, self._start, self._end, self._parent, self._op
                )
            ],
            "dropped": self.dropped,
            "self_s": dict(zip(self.names, self.self_s)),
            "calls": dict(zip(self.names, self.calls)),
            "counts": dict(sorted(self.counts.items())),
        }

    def write(self, path: str | Path) -> Path:
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict()) + "\n", encoding="utf-8")
        return target


class _Span:
    __slots__ = ("_recorder", "_name_id")

    def __init__(self, recorder: SpanRecorder, name_id: int):
        self._recorder = recorder
        self._name_id = name_id

    def __enter__(self) -> None:
        self._recorder.enter(self._name_id)

    def __exit__(self, *exc) -> None:
        self._recorder.exit()


@dataclass(frozen=True)
class Tap:
    """One wrapped entry point.

    ``span`` names the span each call records (``None``: count only).
    ``count`` names a counter; ``size(args, result)`` gives the amount
    added per call (default 1), while ``delta(self)`` is read before and
    after the call and the difference is added instead.
    """

    module: str
    qualname: str
    span: str | None
    count: str | None = None
    size: Callable | None = None
    delta: Callable | None = None


def _rows(_args, result) -> int:
    return len(result)


def _events_written(args, _result) -> int:
    return 1 if args[0].events_enabled else 0


def _probe_count(probe) -> int:
    return probe.probe_count


#: The layer boundaries, by the module that defines each entry point.
TAPS: tuple[Tap, ...] = (
    Tap("repro.core.fleet", "characterize_fleet", "fleet.self"),
    Tap("repro.core.fleet", "run_fleet_observed", "fleet.self"),
    Tap("repro.core.characterize", "Characterizer.characterize_idle",
        "characterize.idle", count="characterize.calls"),
    Tap("repro.core.characterize", "Characterizer.characterize_ubench",
        "characterize.ubench", count="characterize.calls"),
    Tap("repro.core.characterize", "Characterizer.characterize_app",
        "characterize.app", count="characterize.calls"),
    Tap("repro.atm.core_sim", "SafetyProbe.probe", None,
        count="characterize.probes", delta=_probe_count),
    Tap("repro.atm.core_sim", "SafetyProbe.max_safe_reduction", None,
        count="characterize.probes", delta=_probe_count),
    Tap("repro.atm.core_sim", "SafetyProbe.rollback_to_safe", None,
        count="characterize.probes", delta=_probe_count),
    Tap("repro.atm.transient", "TransientSimulator.run", "atm.transient",
        count="atm.transient_calls"),
    Tap("repro.atm.multicore_transient", "MulticoreTransientSimulator.run",
        "atm.transient", count="atm.transient_calls"),
    Tap("repro.atm.chip_sim", "ChipSim.solve_many", "chip_sim.solve_many",
        count="chip_sim.solve_many_calls"),
    Tap("repro.silicon.chipspec", "draw_chip", "silicon.draw",
        count="silicon.draws"),
    Tap("repro.silicon.chipspec", "ChipDraw.materialize", "silicon.draw"),
    Tap("repro.fastpath.compiled", "compile_chip", "compiled.compile",
        count="compiled.compiles"),
    Tap("repro.fastpath.compiled", "compile_draw", "compiled.compile",
        count="compiled.compiles"),
    Tap("repro.fastpath.compiled", "fingerprint_of", "compiled.fingerprint"),
    Tap("repro.fastpath.compiled", "fingerprint_from_draw",
        "compiled.fingerprint"),
    Tap("repro.fastpath.population", "solve_chips_cached",
        "population.solve_cached"),
    Tap("repro.fastpath.population", "solve_population_compiled",
        "population.solve", count="population.rows", size=_rows),
    Tap("repro.fastpath.solver", "solve_many_compiled", "solver.solve",
        count="population.rows", size=_rows),
    Tap("repro.fastpath.store", "configure_store", "store.open"),
    Tap("repro.fastpath.store", "SolveStore.get", "store.get",
        count="store.calls"),
    Tap("repro.fastpath.store", "SolveStore.put", "store.put",
        count="store.calls"),
    Tap("repro.core.char_record", "char_key", "char_record.key"),
    Tap("repro.core.char_record", "replay_characterization",
        "char_record.replay", count="char_record.replays"),
    Tap("repro.core.char_record", "CharRecorder.encode", "char_record.encode"),
    Tap("repro.obs.runtime", "Observability.emit", "obs.emit",
        count="obs.events", size=_events_written),
    Tap("repro.obs.runtime", "Observability.emit_new", "obs.emit",
        count="obs.events", size=_events_written),
    Tap("repro.obs.manifest", "build_manifest", "obs.manifest"),
    Tap("repro.obs.manifest", "save_manifest", "obs.manifest"),
    Tap("repro.obs.tsdb.series", "Tsdb.record", "tsdb.record"),
    Tap("repro.obs.tsdb.store", "TsdbStore.write", "tsdb.write"),
    Tap("repro.obs.alerts.engine", "evaluate_rules", "alerts.eval"),
)


def _wrap(original: Callable, tap: Tap, recorder: SpanRecorder) -> Callable:
    span_id = recorder.name_id(tap.span) if tap.span is not None else None
    counts = recorder.counts
    count, size, delta = tap.count, tap.size, tap.delta

    @functools.wraps(original)
    def tapped(*args, **kwargs):
        before = delta(args[0]) if delta is not None else 0
        if span_id is None:
            result = original(*args, **kwargs)
        else:
            recorder.enter(span_id)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.exit()
        if count is not None:
            if delta is not None:
                counts[count] += delta(args[0]) - before
            elif size is not None:
                counts[count] += size(args, result)
            else:
                counts[count] += 1
        return result

    setattr(tapped, TAP_MARK, True)
    return tapped


def _is_tap(value) -> bool:
    return isinstance(value, types.FunctionType) and TAP_MARK in value.__dict__


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Taps:
    """Installs :data:`TAPS` around a recorder; :meth:`remove` undoes it."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> "Taps":
        if self._undo:
            raise RuntimeError("taps are already installed")
        try:
            self._install()
        except BaseException:
            self.remove()
            raise
        return self

    def _install(self) -> None:
        modules = None
        for tap in TAPS:
            owner = importlib.import_module(tap.module)
            owner_name, _, attr = tap.qualname.rpartition(".")
            if owner_name:
                owner = getattr(owner, owner_name)
            original = vars(owner)[attr]
            wrapper = _wrap(original, tap, self.recorder)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            if owner_name:
                continue  # methods live on the one class object
            if modules is None:
                modules = _repro_modules()
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        # Modules imported while the taps were live bound the wrappers.
        for module in _repro_modules():
            for name, value in list(vars(module).items()):
                if _is_tap(value):
                    setattr(module, name, value.__wrapped__)

    def __enter__(self) -> "Taps":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()


def installed_taps() -> list[str]:
    """Every tap wrapper still bound anywhere in ``repro`` (should be none)."""
    found = []
    for module in _repro_modules():
        for name, value in vars(module).items():
            if _is_tap(value):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    if _is_tap(member):
                        found.append(f"{module.__name__}.{name}.{attr}")
    return sorted(set(found))
