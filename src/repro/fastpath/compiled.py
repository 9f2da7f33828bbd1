"""Per-chip array tables for the vectorized steady-state solver.

A :class:`CompiledChip` flattens everything
:meth:`repro.atm.chip_sim.ChipSim.solve_steady_state` reads per core —
synthetic-path base delays, the full inserted-delay table indexed by code,
alpha-power/V_t/temperature coefficients, and power-spec coefficients —
into numpy arrays, so one fixed-point iteration is pure array math with no
per-core Python calls.

The compilation also derives a content-addressed ``fingerprint``, the
``"solver-v2"`` sha256 over the packed bytes of every solver input: two
chip specs with identical physics compile to the same fingerprint
regardless of object identity or ``chip_id``, which is what lets
:class:`repro.fastpath.cache.SolveCache` and the persistent store share
converged states across equal chips (e.g. the testbed rebuilt by every
experiment).  :func:`fingerprint_from_draw` packs the same bytes straight
from a :class:`~repro.silicon.chipspec.ChipDraw`'s block row, and
:meth:`CompiledChip.from_draw` builds the tables from that row.  Every
chip is compiled in-process: the store keeps no tables, because
compiling from a draw costs about what reading them back did.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from itertools import chain

import numpy as np

from ..power.thermal import ThermalModel
from ..silicon.chipspec import (
    DEFAULT_INVERTER_STEP_PS,
    DEFAULT_PDN_RESISTANCE_OHM,
    DEFAULT_THRESHOLD_UNITS,
    DEFAULT_UNCORE_POWER_W,
    ChipSpec,
    CorePowerSpec,
)
from ..silicon.paths import PathTimingModel
from ..units import NOMINAL_VDD


#: Version tag leading every solver fingerprint's hashed bytes.
_FINGERPRINT_VERSION = b"solver-v2"

#: The core count that leads a fingerprint's ints, and the chip and
#: thermal scalars that lead its floats.
_COUNT = struct.Struct("<q")
_CHIP_TERMS = struct.Struct("<6d")


def _fingerprint(ints: bytes, chip_terms, thermal: ThermalModel, floats: bytes) -> str:
    """The ``"solver-v2"`` content address: sha256 over packed inputs.

    The one hash behind :func:`fingerprint_of`, :class:`CompiledChip`
    and :func:`fingerprint_from_draw`, so their addresses cannot drift.
    ``ints`` are the little-endian int64 bytes of the core count, the
    preset codes and each core's step-width table length, so equal
    values split differently across cores hash differently.  The chip's
    ``chip_terms`` (PDN resistance, uncore power, VRM voltage, DPLL
    slack) and ``thermal``'s two scalars lead the little-endian float64
    ``floats``: the seven per-core columns (synthetic-path base delay,
    threshold voltage, alpha, temperature coefficient, leakage, ceff,
    leakage temperature coefficient), then every step-width table.  Any
    bit-level change to a physical parameter produces a new fingerprint
    (and therefore a cold cache), while renaming a chip or core does not.
    """
    terms = _CHIP_TERMS.pack(*chip_terms, thermal.ambient_c, thermal.resistance_c_per_w)
    return hashlib.sha256(
        b"".join((_FINGERPRINT_VERSION, ints, terms, floats))
    ).hexdigest()


def fingerprint_of(chip: ChipSpec, thermal: ThermalModel | None = None) -> str:
    """The chip's ``"solver-v2"`` content address, without compiling it:
    :func:`_fingerprint` of every quantity the solver reads off ``chip``."""
    cores = chip.cores
    ints = (
        len(cores),
        *(core.preset_code for core in cores),
        *(len(core.step_widths_ps) for core in cores),
    )
    floats = (
        *(core.synth_path.base_delay_ps for core in cores),
        *(core.synth_path.v_threshold for core in cores),
        *(core.synth_path.alpha for core in cores),
        *(core.synth_path.temp_coefficient_per_c for core in cores),
        *(core.power.leakage_w for core in cores),
        *(core.power.ceff_w_per_ghz for core in cores),
        *(core.power.leakage_temp_coeff_per_c for core in cores),
        *chain.from_iterable(core.step_widths_ps for core in cores),
    )
    return _fingerprint(
        struct.pack(f"<{len(ints)}q", *ints),
        (chip.pdn_resistance_ohm, chip.uncore_power_w, chip.vrm_voltage, chip.slack_ps),
        thermal if thermal is not None else ThermalModel(),
        struct.pack(f"<{len(floats)}d", *floats),
    )


#: Coefficient defaults shared by every sampled core and chip (sample_chip
#: only draws base_delay / leakage / ceff; the rest ride the dataclass
#: defaults of PathTimingModel / CorePowerSpec / ChipSpec).
_DRAWN_PATH = PathTimingModel(base_delay_ps=1.0)
_DRAWN_POWER = CorePowerSpec()
_DRAWN_CHIP = (
    DEFAULT_PDN_RESISTANCE_OHM,
    DEFAULT_UNCORE_POWER_W,
    NOMINAL_VDD,
    DEFAULT_THRESHOLD_UNITS * DEFAULT_INVERTER_STEP_PS,
)


@functools.lru_cache(maxsize=64)
def _drawn_constants(n_cores: int, n_steps: int) -> tuple[bytes, bytes, bytes]:
    """The packed fingerprint bytes every drawn chip of this shape shares:
    the table lengths, the three path defaults and the power default."""
    path, power = _DRAWN_PATH, _DRAWN_POWER
    return (
        np.full(n_cores, n_steps, dtype="<i8").tobytes(),
        np.repeat(
            np.array(
                [path.v_threshold, path.alpha, path.temp_coefficient_per_c], "<f8"
            ),
            n_cores,
        ).tobytes(),
        np.full(n_cores, power.leakage_temp_coeff_per_c, dtype="<f8").tobytes(),
    )


def fingerprint_from_draw(draw, thermal: ThermalModel | None = None) -> str:
    """Solver fingerprint of a :class:`~repro.silicon.chipspec.ChipDraw`.

    Equal to ``fingerprint_of(draw.materialize())`` (pinned in
    ``tests/fastpath/test_store.py``) but packed straight from the draw's
    block row with ``tobytes()``, so the fleet can address the store
    without building any per-chip spec objects.  Sampled chips take every
    non-drawn parameter at its dataclass default, which is what
    :func:`_drawn_constants` packs.
    """
    thermal = thermal if thermal is not None else ThermalModel()
    block, row = draw.block, draw.row
    widths = block.step_widths_ps[row]
    n_cores, n_steps = widths.shape
    lengths, path_terms, power_terms = _drawn_constants(n_cores, n_steps)
    return _fingerprint(
        b"".join(
            (_COUNT.pack(n_cores), block.preset_codes[row].tobytes(), lengths)
        ),
        _DRAWN_CHIP,
        thermal,
        b"".join(
            (
                block.synth_base_ps[row].tobytes(),
                path_terms,
                block.leakage_w[row].tobytes(),
                block.ceff_w_per_ghz[row].tobytes(),
                power_terms,
                widths.tobytes(),
            )
        ),
    )


class ChipRef:
    """Minimal chip handle for tables compiled from a draw (the fleet path).

    Downstream consumers of ``CompiledChip.chip`` only read ``chip_id``
    (gauge identity ticks, solver error messages); the fleet compiles
    every chip from its draw and never materializes a :class:`ChipSpec`,
    so this stands in.
    """

    __slots__ = ("chip_id",)

    def __init__(self, chip_id: str):
        self.chip_id = chip_id


def _nominal_alpha_factor(v_threshold: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Denominator of the alpha-power delay ratio, fixed per core:
    V_nom / (V_nom - V_t)^alpha."""
    return NOMINAL_VDD / ((NOMINAL_VDD - v_threshold) ** alpha)


class CompiledChip:
    """Flat array view of one chip (plus thermal model) for the fast solver."""

    __slots__ = (
        "chip",
        "thermal",
        "n_cores",
        "base_delay_ps",
        "insert_table_ps",
        "slack_ps",
        "v_threshold",
        "alpha",
        "nominal_alpha_factor",
        "temp_coeff",
        "leakage_w",
        "ceff_w_per_ghz",
        "leakage_temp_coeff",
        "preset_code",
        "vrm_voltage",
        "pdn_resistance_ohm",
        "uncore_power_w",
        "ambient_c",
        "thermal_resistance",
        "fingerprint",
    )

    def __init__(self, chip: ChipSpec, thermal: ThermalModel | None = None):
        thermal = thermal if thermal is not None else ThermalModel()
        self.chip = chip
        self.thermal = thermal
        cores = chip.cores
        self.n_cores = len(cores)

        self.base_delay_ps = np.array(
            [c.synth_path.base_delay_ps for c in cores], dtype=np.float64
        )
        # Full inserted-delay tables indexed by code.  Rows are the cores'
        # cumulative step sums (code 0 .. len(step_widths)); shorter tables
        # are padded with their final value — codes past a core's own table
        # are rejected upstream, so the padding is never observable.
        max_codes = max(len(c.step_widths_ps) for c in cores) + 1
        table = np.zeros((self.n_cores, max_codes), dtype=np.float64)
        for row, core in enumerate(cores):
            cumsum = core._insert_cumsum_ps
            table[row, : len(cumsum)] = cumsum
            table[row, len(cumsum):] = cumsum[-1]
        self.insert_table_ps = table

        self.slack_ps = float(chip.slack_ps)
        self.v_threshold = np.array(
            [c.synth_path.v_threshold for c in cores], dtype=np.float64
        )
        self.alpha = np.array([c.synth_path.alpha for c in cores], dtype=np.float64)
        self.nominal_alpha_factor = _nominal_alpha_factor(self.v_threshold, self.alpha)
        self.temp_coeff = np.array(
            [c.synth_path.temp_coefficient_per_c for c in cores], dtype=np.float64
        )
        self.leakage_w = np.array([c.power.leakage_w for c in cores], dtype=np.float64)
        self.ceff_w_per_ghz = np.array(
            [c.power.ceff_w_per_ghz for c in cores], dtype=np.float64
        )
        self.leakage_temp_coeff = np.array(
            [c.power.leakage_temp_coeff_per_c for c in cores], dtype=np.float64
        )
        self.preset_code = np.array([c.preset_code for c in cores], dtype=np.int64)

        self.vrm_voltage = float(chip.vrm_voltage)
        self.pdn_resistance_ohm = float(chip.pdn_resistance_ohm)
        self.uncore_power_w = float(chip.uncore_power_w)
        self.ambient_c = float(thermal.ambient_c)
        self.thermal_resistance = float(thermal.resistance_c_per_w)
        self.fingerprint = fingerprint_of(chip, thermal)

    @classmethod
    def from_draw(cls, draw, thermal: ThermalModel | None = None) -> "CompiledChip":
        """Compile a :class:`~repro.silicon.chipspec.ChipDraw` from its block row.

        Every array holds the bytes ``CompiledChip(draw.materialize())``
        computes: the per-core columns are the row's own arrays (read,
        never written), the inserted-delay table accumulates each core's
        step widths left to right from 0.0 (``np.add.accumulate``, as
        ``CoreSpec`` adds them), and every parameter the draw does not
        sample takes the dataclass default :func:`fingerprint_from_draw`
        restates.  The chip is a :class:`ChipRef`.
        """
        thermal = thermal if thermal is not None else ThermalModel()
        path, power = _DRAWN_PATH, _DRAWN_POWER
        pdn, uncore, vrm, slack = _DRAWN_CHIP
        block, row = draw.block, draw.row
        widths = block.step_widths_ps[row]
        n_cores = len(widths)
        steps = np.zeros((n_cores, widths.shape[1] + 1))
        steps[:, 1:] = widths

        self = object.__new__(cls)
        self.chip = ChipRef(draw.chip_id)
        self.thermal = thermal
        self.n_cores = n_cores
        self.base_delay_ps = block.synth_base_ps[row]
        self.insert_table_ps = np.add.accumulate(steps, axis=1)
        self.slack_ps = float(slack)
        self.v_threshold = np.full(n_cores, path.v_threshold)
        self.alpha = np.full(n_cores, path.alpha)
        self.nominal_alpha_factor = _nominal_alpha_factor(self.v_threshold, self.alpha)
        self.temp_coeff = np.full(n_cores, path.temp_coefficient_per_c)
        self.leakage_w = block.leakage_w[row]
        self.ceff_w_per_ghz = block.ceff_w_per_ghz[row]
        self.leakage_temp_coeff = np.full(n_cores, power.leakage_temp_coeff_per_c)
        self.preset_code = block.preset_codes[row]
        self.vrm_voltage = float(vrm)
        self.pdn_resistance_ohm = float(pdn)
        self.uncore_power_w = float(uncore)
        self.ambient_c = float(thermal.ambient_c)
        self.thermal_resistance = float(thermal.resistance_c_per_w)
        self.fingerprint = fingerprint_from_draw(draw, thermal)
        return self


def compile_chip(chip: ChipSpec, thermal: ThermalModel | None = None) -> CompiledChip:
    """Compile ``chip``: ``CompiledChip(chip, thermal)``."""
    return CompiledChip(chip, thermal)


def compile_draw(draw, thermal: ThermalModel | None = None) -> CompiledChip:
    """Compile a :class:`~repro.silicon.chipspec.ChipDraw`, the fleet's entry.

    :meth:`CompiledChip.from_draw`: the tables and the fingerprint
    (:func:`fingerprint_from_draw`) come straight from the draw's block
    row, no :class:`ChipSpec` is materialized, and the result equals
    ``compile_chip(draw.materialize(), thermal)`` in every array, scalar
    and the fingerprint.
    """
    return CompiledChip.from_draw(draw, thermal)
