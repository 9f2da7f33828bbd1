"""The fine-tuning characterization methodology (paper Sec. III-B, Fig. 6).

The procedure walks each core through scenarios of increasing stress,
repeating every failure experiment to build distributions:

1. **Idle** — walk the CPM delay reduction up from the factory preset
   until the idle system fails; repeat to build the (tight) distribution
   of Fig. 7; the distribution's lower bound is the core's *idle limit*.
2. **uBench** — starting at the idle limit, run coremark / daxpy / stream;
   if any fails, roll the reduction back until all three pass.  The
   rollback distributions of the problematic cores are Fig. 8; the result
   is the *uBench limit*.
3. **Realistic workloads** — for every <application, core> pair, roll back
   from the uBench limit until the application passes (Figs. 9-10).
   *thread-worst* is the most conservative limit over all profiled
   applications; *thread-normal* supports the medium-and-light population.

The characterizer operates purely through :class:`SafetyProbe`, i.e. the
same run-and-observe interface real hardware offers — nothing in this
module peeks at the simulator's ground-truth safety model.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..analysis.stats import DistributionSummary, summarize
from ..atm.core_sim import SafetyProbe
from ..errors import ConfigurationError
from ..obs.events import RollbackEvent
from ..obs.runtime import get_obs
from ..rng import RngStreams
from ..silicon.chipspec import ChipSpec, CoreSpec, ServerSpec
from ..workloads.base import IDLE, Workload
from ..workloads.registry import (
    medium_and_light_applications,
    realistic_applications,
)
from ..workloads.ubench import UBENCH_SUITE
from .limits import CoreLimits, LimitTable


@dataclass(frozen=True)
class IdleCharacterization:
    """Per-core result of the idle stage."""

    core_label: str
    distribution: DistributionSummary

    @property
    def idle_limit(self) -> int:
        """Lower bound of the safe-configuration distribution."""
        return self.distribution.minimum


@dataclass(frozen=True)
class UbenchCharacterization:
    """Per-core result of the uBench stage."""

    core_label: str
    idle_limit: int
    rollback_distribution: DistributionSummary

    @property
    def ubench_limit(self) -> int:
        """The idle limit minus the worst observed rollback."""
        return self.idle_limit - self.rollback_distribution.maximum

    @property
    def needed_rollback(self) -> bool:
        """Whether this core is one of the problematic ones (Fig. 8)."""
        return self.rollback_distribution.maximum > 0


@dataclass(frozen=True)
class AppCharacterization:
    """Result of profiling one <application, core> pair (Figs. 9-10)."""

    core_label: str
    app_name: str
    ubench_limit: int
    rollback_distribution: DistributionSummary

    @property
    def app_limit(self) -> int:
        """Safe limit for this application on this core."""
        return self.ubench_limit - self.rollback_distribution.maximum

    @property
    def average_rollback(self) -> float:
        """Weighted-average rollback — the Fig. 10 cell value."""
        return self.rollback_distribution.mean


@dataclass(frozen=True)
class ChipCharacterization:
    """Everything the methodology learns about one chip."""

    chip_id: str
    idle: dict[str, IdleCharacterization]
    ubench: dict[str, UbenchCharacterization]
    apps: dict[tuple[str, str], AppCharacterization]
    limits: dict[str, CoreLimits]


def trial_stream_name(stage: str, core_label: str, trial: int) -> str:
    """Name of the RNG stream one characterization trial draws from.

    ``stage`` is ``"idle"``, ``"ubench"`` or ``"app.<name>"``; each
    (stage, core, trial) has its own stream, seeded from the
    characterizer's root seed.
    """
    return f"characterize.{stage}.{core_label}.{trial}"


class Characterizer:
    """Runs the Fig. 6 methodology against a simulated (or real) chip.

    Parameters
    ----------
    streams:
        Seed source; each (stage, core, trial) consumes an independent
        stream so results are reproducible yet trials are independent.
    trials:
        Repetitions of each failure experiment (the paper repeats "multiple
        times"; the default of 10 gives stable distribution bounds).
    repeats_per_step:
        Workload runs per configuration step within one trial.
    noise_sigma_ps:
        Measurement-noise level handed to every :class:`SafetyProbe`.
    """

    def __init__(
        self,
        streams: RngStreams,
        *,
        trials: int = 10,
        repeats_per_step: int = 2,
        noise_sigma_ps: float = 0.1,
    ):
        if trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {trials}")
        if repeats_per_step < 1:
            raise ConfigurationError(
                f"repeats_per_step must be >= 1, got {repeats_per_step}"
            )
        self._streams = streams
        self._trials = trials
        self._repeats = repeats_per_step
        self._noise_sigma_ps = noise_sigma_ps
        self._issued_probes: list[SafetyProbe] = []

    def _probe(self, stage: str, core_label: str, trial: int) -> SafetyProbe:
        rng = self._streams.stream(trial_stream_name(stage, core_label, trial))
        probe = SafetyProbe(rng, noise_sigma_ps=self._noise_sigma_ps)
        self._issued_probes.append(probe)
        return probe

    def prepare_streams(
        self, cores: Sequence[CoreSpec], stages: Sequence[str]
    ) -> None:
        """Create the trial streams of ``stages`` × ``cores`` in one batch.

        Stage names are those of the stage methods' streams (``"idle"``,
        ``"ubench"``, ``"app.<name>"``).  Every stream is what the stage
        would have created on first use, and a stream that already exists
        keeps its position, so calling this changes no draw; it only
        replaces per-trial seeding with one batched pass
        (:meth:`repro.rng.RngStreams.streams`).
        """
        self._streams.streams(
            [
                trial_stream_name(stage, core.label, trial)
                for core in cores
                for stage in stages
                for trial in range(self._trials)
            ]
        )

    @property
    def total_probe_count(self) -> int:
        """Workload runs performed so far — the raw test-time cost.

        On real hardware every probe is one full benchmark execution, so
        this counter is what the cost model
        (:mod:`repro.core.cost_model`) validates against.
        """
        return sum(probe.probe_count for probe in self._issued_probes)

    # -- stage 1: idle --------------------------------------------------------

    def characterize_idle(self, core: CoreSpec) -> IdleCharacterization:
        """Build the distribution of safe idle configurations (Fig. 7)."""
        outcomes = []
        for trial in range(self._trials):
            probe = self._probe("idle", core.label, trial)
            outcomes.append(
                probe.max_safe_reduction(
                    core, IDLE, start=0, repeats_per_step=self._repeats
                )
            )
        return IdleCharacterization(
            core_label=core.label, distribution=summarize(outcomes)
        )

    # -- stage 2: micro-benchmarks ---------------------------------------------

    def characterize_ubench(
        self, core: CoreSpec, idle_limit: int
    ) -> UbenchCharacterization:
        """Roll back from the idle limit until all uBench programs pass.

        Each trial's rollback is the worst over the three programs; the
        distribution across trials reflects run-to-run variation of the
        stress impact (Fig. 8).
        """
        if not (0 <= idle_limit <= core.preset_code):
            raise ConfigurationError(
                f"{core.label}: idle_limit must be in [0, {core.preset_code}]"
            )
        obs = get_obs()
        rollbacks = []
        for trial in range(self._trials):
            probe = self._probe("ubench", core.label, trial)
            worst_safe = idle_limit
            for program in UBENCH_SUITE:
                safe = probe.rollback_to_safe(
                    core, program, start=worst_safe, repeats_per_step=self._repeats
                )
                if safe < worst_safe and obs.events_enabled:
                    obs.emit(
                        RollbackEvent(
                            seq=0,
                            core_label=core.label,
                            stage="ubench",
                            workload=program.name,
                            from_steps=worst_safe,
                            to_steps=safe,
                        )
                    )
                worst_safe = min(worst_safe, safe)
            rollbacks.append(idle_limit - worst_safe)
        return UbenchCharacterization(
            core_label=core.label,
            idle_limit=idle_limit,
            rollback_distribution=summarize(rollbacks),
        )

    # -- stage 3: realistic applications ----------------------------------------

    def characterize_app(
        self, core: CoreSpec, app: Workload, ubench_limit: int
    ) -> AppCharacterization:
        """Profile one <application, core> pair from the uBench limit."""
        if not (0 <= ubench_limit <= core.preset_code):
            raise ConfigurationError(
                f"{core.label}: ubench_limit must be in [0, {core.preset_code}]"
            )
        obs = get_obs()
        rollbacks = []
        for trial in range(self._trials):
            probe = self._probe(f"app.{app.name}", core.label, trial)
            safe = probe.rollback_to_safe(
                core, app, start=ubench_limit, repeats_per_step=self._repeats
            )
            if safe < ubench_limit and obs.events_enabled:
                obs.emit(
                    RollbackEvent(
                        seq=0,
                        core_label=core.label,
                        stage="app",
                        workload=app.name,
                        from_steps=ubench_limit,
                        to_steps=safe,
                    )
                )
            rollbacks.append(ubench_limit - safe)
        return AppCharacterization(
            core_label=core.label,
            app_name=app.name,
            ubench_limit=ubench_limit,
            rollback_distribution=summarize(rollbacks),
        )

    # -- full methodology --------------------------------------------------------

    def characterize_chip(
        self,
        chip: ChipSpec,
        applications: tuple[Workload, ...] | None = None,
        normal_population: tuple[Workload, ...] | None = None,
    ) -> ChipCharacterization:
        """Run all three stages for every core of ``chip``.

        ``applications`` defaults to the full SPEC + PARSEC + DNN profiling
        set; ``normal_population`` defaults to its medium-and-light subset
        (thread-normal's definition).
        """
        apps = (
            applications if applications is not None else realistic_applications()
        )
        if not apps:
            raise ConfigurationError("application population must not be empty")
        if normal_population is not None:
            normal_apps = normal_population
        else:
            # Thread-normal is defined over the medium-and-light subset of
            # whatever population is actually being profiled.
            threshold = max(w.stress for w in medium_and_light_applications())
            normal_apps = tuple(w for w in apps if w.stress <= threshold)
            if not normal_apps:
                # Degenerate population of only heavy apps: thread-normal
                # collapses onto thread-worst.
                normal_apps = apps
        unknown = [w.name for w in normal_apps if w.name not in {a.name for a in apps}]
        if unknown:
            raise ConfigurationError(
                f"normal population must be a subset of applications; extra: {unknown}"
            )

        idle_results: dict[str, IdleCharacterization] = {}
        ubench_results: dict[str, UbenchCharacterization] = {}
        app_results: dict[tuple[str, str], AppCharacterization] = {}
        limits: dict[str, CoreLimits] = {}

        self.prepare_streams(
            chip.cores, ("idle", "ubench", *(f"app.{app.name}" for app in apps))
        )
        obs = get_obs()
        for core in chip.cores:
            with obs.tracer.span("characterize.core", core=core.label):
                idle_result = self.characterize_idle(core)
                idle_results[core.label] = idle_result

                ubench_result = self.characterize_ubench(
                    core, idle_result.idle_limit
                )
                ubench_results[core.label] = ubench_result
                ubench_limit = ubench_result.ubench_limit

                app_limits = {}
                for app in apps:
                    result = self.characterize_app(core, app, ubench_limit)
                    app_results[(app.name, core.label)] = result
                    app_limits[app.name] = result.app_limit

            thread_worst = min(app_limits.values())
            thread_normal = min(app_limits[w.name] for w in normal_apps)
            limits[core.label] = CoreLimits(
                core_label=core.label,
                idle=idle_result.idle_limit,
                ubench=ubench_limit,
                thread_normal=thread_normal,
                thread_worst=thread_worst,
            )
            if obs.enabled:
                obs.metrics.counter("characterize.cores").inc()

        return ChipCharacterization(
            chip_id=chip.chip_id,
            idle=idle_results,
            ubench=ubench_results,
            apps=app_results,
            limits=limits,
        )

    def characterize_chips(
        self,
        chips: Sequence[ChipSpec],
        applications: tuple[Workload, ...] | None = None,
        normal_population: tuple[Workload, ...] | None = None,
    ) -> dict[str, ChipCharacterization]:
        """Run the full methodology over a fleet of chips, in order.

        The entry point of the population experiments (the sampled fleet
        of :mod:`repro.core.fleet` is characterized by
        :func:`repro.core.char_record.characterize_chunk` instead).
        Chips are processed strictly in input order (characterization is
        probe-driven, so ordering determines the event stream; keeping it
        fixed keeps artifacts byte-identical between per-chip and
        fleet-batched solving downstream).
        """
        return {
            chip.chip_id: self.characterize_chip(
                chip, applications, normal_population
            )
            for chip in chips
        }

    def characterize_server(
        self,
        server: ServerSpec,
        applications: tuple[Workload, ...] | None = None,
    ) -> tuple[LimitTable, dict[str, ChipCharacterization]]:
        """Characterize every chip; returns the Table I limit table."""
        per_chip = self.characterize_chips(server.chips, applications)
        merged: dict[str, CoreLimits] = {}
        for characterization in per_chip.values():
            merged.update(characterization.limits)
        return LimitTable(merged), per_chip
