"""Silicon substrate: process variation and critical-path timing physics.

This subpackage models the properties of the POWER7+ silicon that the paper
measures but cannot change: within-die and die-to-die process variation
(:mod:`repro.silicon.process`), the voltage/temperature dependence of path
delays (:mod:`repro.silicon.paths`), and the specification objects that
describe a chip to the rest of the library (:mod:`repro.silicon.chipspec`).

Two chip factories matter:

* :func:`repro.silicon.chipspec.power7plus_testbed` — the paper's two-socket
  server, inverse-modeled from published per-core data so characterization
  reproduces Table I and Fig. 4b.
* :func:`repro.silicon.chipspec.sample_chip` — randomly drawn chips for
  generalization studies and property tests.
"""

from .process import ProcessVariationModel
from .paths import PathTimingModel, alpha_power_delay_factor
from .aging import AgingModel, age_chip
from .chipspec import (
    ChipSpec,
    CoreSpec,
    ServerSpec,
    core_label,
    power7plus_testbed,
    sample_chip,
)

__all__ = [
    "ProcessVariationModel",
    "AgingModel",
    "age_chip",
    "PathTimingModel",
    "alpha_power_delay_factor",
    "ChipSpec",
    "CoreSpec",
    "ServerSpec",
    "core_label",
    "power7plus_testbed",
    "sample_chip",
]
