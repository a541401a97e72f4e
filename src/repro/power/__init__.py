"""Power, energy, and frequency modelling for the Piton reproduction.

The model has three layers:

1. :mod:`repro.power.calibration` — every free constant in one place:
   per-event energies (priced at nominal voltage), leakage and clock
   coefficients, the alpha-power-law delay parameters, thermal
   resistances. Each is annotated with the paper anchor it was fitted
   against.
2. :mod:`repro.power.technology` — the device-physics relations: static
   power exponential in voltage and temperature, CV^2f clock power,
   Fmax from the alpha-power law, quadratic voltage scaling of event
   energies.
3. :mod:`repro.power.chip_power` — the aggregator that turns an
   :class:`~repro.util.events.EventLedger` plus operating point
   (VDD/VCS/VIO, frequency, temperature, chip persona) into per-rail
   power, which the virtual test board then "measures".

:mod:`repro.power.epi` and :mod:`repro.power.epf` implement the paper's
energy-per-instruction and energy-per-flit equations verbatim, so the
reproduction's analysis pipeline is the paper's.
"""

from repro.power.calibration import DEFAULT_CALIBRATION, Calibration, EventEnergy
from repro.power.chip_power import ChipPowerModel, OperatingPoint, RailPower
from repro.power.epf import energy_per_flit
from repro.power.epi import energy_per_instruction
from repro.power.fitting import fit_fmax, fit_static_idle
from repro.power.report import PowerReport
from repro.power.vf_curve import VfCurve

__all__ = [
    "DEFAULT_CALIBRATION",
    "Calibration",
    "EventEnergy",
    "ChipPowerModel",
    "OperatingPoint",
    "RailPower",
    "energy_per_flit",
    "energy_per_instruction",
    "VfCurve",
    "fit_fmax",
    "fit_static_idle",
    "PowerReport",
]
