"""Power delivery, consumption, noise, and thermal substrate.

This subpackage supplies every electrical quantity the ATM loop reacts to:

* :mod:`repro.power.pdn` — the shared power-delivery network: DC IR drop
  (the origin of Eq. 1's frequency-vs-power line) and the second-order
  droop response that shapes di/dt transients;
* :mod:`repro.power.core_power` — chip-level power aggregation over the
  per-core models in :class:`repro.silicon.chipspec.CorePowerSpec`;
* :mod:`repro.power.didt` — stochastic di/dt event generation scaled by
  workload activity;
* :mod:`repro.power.thermal` — a lumped-RC die temperature model.
"""

from .pdn import PowerDeliveryNetwork, DroopResponse
from .core_power import chip_power_w, core_power_w
from .didt import DidtEvent, DidtEventGenerator
from .thermal import ThermalModel

__all__ = [
    "PowerDeliveryNetwork",
    "DroopResponse",
    "chip_power_w",
    "core_power_w",
    "DidtEvent",
    "DidtEventGenerator",
    "ThermalModel",
]
