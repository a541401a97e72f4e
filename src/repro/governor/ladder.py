"""The governor's actuation ladder: (V, f) operating points.

A real power controller does not command arbitrary voltage/frequency
pairs — it walks a table of validated operating points. Here the table
comes from the chip itself: for each VDD on the bench grid,
:class:`repro.power.vf_curve.VfCurve` gives the highest bootable grid
frequency (thermal limiting included), and VCS rides 0.05 V above VDD
exactly as in every paper experiment. Points that buy no frequency for
more voltage (Chip #1's 1.2 V droop) are dominated and dropped, so the
ladder is strictly ascending in frequency and a governor never holds a
hotter rung than it needs for the clock it delivers.

A :class:`LadderStep` is a NamedTuple: the plant keys its per-rung
tables by step, and a tuple hashes and compares in C.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.power.calibration import Calibration, DEFAULT_CALIBRATION
from repro.power.vf_curve import VfCurve
from repro.silicon.variation import ChipPersona

#: The bench VDD sweep grid (Figure 9's x axis): 0.80 V to 1.20 V in
#: 50 mV steps.
DEFAULT_VDD_GRID: tuple[float, ...] = tuple(
    round(0.80 + 0.05 * i, 2) for i in range(9)
)


class LadderStep(NamedTuple):
    """One validated operating point the governor may command."""

    level: int
    vdd: float
    vcs: float
    freq_hz: float


def vf_ladder(
    persona: ChipPersona,
    vdd_grid: tuple[float, ...] = DEFAULT_VDD_GRID,
    calib: Calibration = DEFAULT_CALIBRATION,
    ambient_c: float = 25.0,
) -> tuple[LadderStep, ...]:
    """Build the actuation ladder for one chip persona.

    Levels are indexed from 0 (slowest, lowest voltage) upward;
    ``ladder[-1]`` is the fastest validated point.
    """
    if not vdd_grid:
        raise ValueError("need at least one VDD grid point")
    if sorted(vdd_grid) != list(vdd_grid):
        raise ValueError("VDD grid must be ascending")
    curve = VfCurve(persona, calib, ambient_c)
    steps: list[LadderStep] = []
    for vdd in vdd_grid:
        point = curve.boot_frequency(vdd)
        if point.fmax_hz <= 0:
            continue  # does not boot at this voltage
        if steps and point.fmax_hz <= steps[-1].freq_hz:
            continue  # dominated: more volts, no more clock
        steps.append(
            LadderStep(
                level=len(steps),
                vdd=vdd,
                vcs=vdd + 0.05,
                freq_hz=point.fmax_hz,
            )
        )
    if not steps:
        raise ValueError("no bootable operating point on the VDD grid")
    return tuple(steps)
