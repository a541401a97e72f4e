"""Lumped RC thermal network (Cauer ladder).

Die -> package/encapsulation -> heat sink -> ambient, each stage a
thermal resistance into the next node and a heat capacitance at the
node. This is the standard compact model (HotSpot-style [71]) at the
granularity the paper's package-level measurements support.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class RcStage:
    """One ladder rung: resistance to the next node, capacity here."""

    name: str
    r_c_per_w: float  # thermal resistance, degC per watt
    c_j_per_c: float  # heat capacity, joules per degC

    def __post_init__(self) -> None:
        if self.r_c_per_w <= 0 or self.c_j_per_c <= 0:
            raise ValueError("thermal R and C must be positive")

    @property
    def tau_s(self) -> float:
        return self.r_c_per_w * self.c_j_per_c


class ThermalNetwork:
    """Cauer ladder driven by die power, grounded at ambient."""

    def __init__(self, stages: Sequence[RcStage], ambient_c: float = 25.0):
        if not stages:
            raise ValueError("need at least one stage")
        #: Swap a stage only through :meth:`set_stage_resistance`, which
        #: rebuilds the coefficients :meth:`step` reads.
        self.stages = list(stages)
        self.ambient_c = ambient_c
        self.temps = [ambient_c] * len(stages)
        self._cache_coefficients()
        #: Largest die power ever applied; the boundedness checker
        #: derives its temperature ceiling from this watermark.
        self.power_peak_w = 0.0
        #: Optional :class:`repro.check.CheckSuite`; ``None`` keeps
        #: stepping check-free.
        self.checker = None

    @property
    def die_temp_c(self) -> float:
        return self.temps[0]

    @property
    def total_resistance(self) -> float:
        return sum(s.r_c_per_w for s in self.stages)

    def set_stage_resistance(self, index: int, r_c_per_w: float) -> None:
        """Swap one stage's thermal resistance in place, keeping the
        node temperatures (they are physical state).

        This models a cooling change while the system runs — a fan
        failing (convective resistance jumps) or recovering — which the
        closed-loop governor scenarios drive mid-simulation. Validation
        rides on :class:`RcStage`'s own ``__post_init__``.
        """
        stage = self.stages[index]
        self.stages[index] = RcStage(
            stage.name, r_c_per_w, stage.c_j_per_c
        )
        self._cache_coefficients()

    def _cache_coefficients(self) -> None:
        """Read the stages into the lists :meth:`step` uses, and find
        the Euler stability bound.

        Explicit-Euler stability is set by each node's *effective*
        time constant: its capacity over the total conductance
        attached to it (own R downstream plus the upstream stage's R
        coupling heat in), not by the stage's own R*C alone.
        """
        self._r = [stage.r_c_per_w for stage in self.stages]
        self._c = [stage.c_j_per_c for stage in self.stages]
        taus = []
        for i, stage in enumerate(self.stages):
            g = 1.0 / stage.r_c_per_w
            if i > 0:
                g += 1.0 / self.stages[i - 1].r_c_per_w
            taus.append(stage.c_j_per_c / g)
        self._min_tau = min(taus)
        self._last = len(self.stages) - 1
        # The last step's dt_s, substep count and substep length; no
        # step has run on these stages while the dt is 0.
        self._sub_dt, self._substeps, self._sub_h = 0.0, 0, 0.0

    def steady_state(self, power_w: float) -> list[float]:
        """Node temperatures once everything settles at ``power_w``."""
        temps = []
        temp = self.ambient_c
        # Walk from ambient inward: all power flows through every R.
        for stage in reversed(self.stages):
            temp = temp + power_w * stage.r_c_per_w
            temps.append(temp)
        return list(reversed(temps))

    def settle(self, power_w: float) -> None:
        """Jump the state to the steady point (initial conditions)."""
        self.power_peak_w = max(self.power_peak_w, power_w)
        self.temps = self.steady_state(power_w)
        if self.checker is not None:
            self.checker.check_thermal(self)

    def step(self, power_w: float, dt_s: float) -> float:
        """Advance the network ``dt_s`` seconds with ``power_w`` at the
        die node; returns the new die temperature. Uses forward Euler
        with internal sub-stepping for stability.

        The substep count for ``dt_s`` is worked out on the first step
        of a given length and kept until ``dt_s`` changes or
        :meth:`set_stage_resistance` swaps a stage.
        """
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        if power_w > self.power_peak_w:
            self.power_peak_w = power_w
        if dt_s != self._sub_dt:
            self._substeps = max(1, int(dt_s / (0.1 * self._min_tau)) + 1)
            self._sub_h = dt_s / self._substeps
            self._sub_dt = dt_s
        h = self._sub_h
        r = self._r
        c = self._c
        last = self._last
        ambient = self.ambient_c
        temps = self.temps
        for _ in range(self._substeps):
            # Every flow comes from the temperatures before the substep:
            # ``temps`` is read while ``new_temps`` is built.
            new_temps = []
            inflow = power_w
            for i, temp in enumerate(temps):
                downstream = temps[i + 1] if i < last else ambient
                outflow = (temp - downstream) / r[i]
                new_temps.append(temp + h * (inflow - outflow) / c[i])
                inflow = outflow
            temps = new_temps
        self.temps = temps
        if self.checker is not None:
            self.checker.check_thermal(self)
        return temps[0]
