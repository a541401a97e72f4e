"""Coupled power-temperature time simulation.

Power depends on temperature (leakage) and temperature depends on power
(the RC network): this module closes the loop and integrates it in
time, which is what produces Figure 18's hysteresis — after a phase
change, power jumps immediately but temperature lags with the package
time constants, then leakage follows temperature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.thermal.cooling import CoolingSetup
from repro.thermal.rc_network import ThermalNetwork

#: power_fn(die_temp_c, time_s) -> total chip watts
PowerFunction = Callable[[float, float], float]


@dataclass(frozen=True)
class TraceSample:
    """One point of a power/temperature time series."""

    time_s: float
    power_w: float
    die_temp_c: float
    surface_temp_c: float


class PowerTemperatureSimulator:
    """Integrates the power-thermal feedback loop."""

    def __init__(self, cooling: CoolingSetup, checker=None):
        self.cooling = cooling
        self.network: ThermalNetwork = cooling.network()
        #: Optional :class:`repro.check.CheckSuite`, installed on the
        #: RC network so every settle/step is bounds-checked.
        self.network.checker = checker

    def settle(self, power_fn: PowerFunction) -> float:
        """Find the steady operating point of the feedback loop (within
        200 damped iterations) and set the network state there; returns
        the die temperature."""
        temp = self.network.ambient_c
        for _ in range(200):
            power = power_fn(temp, 0.0)
            steady = self.network.steady_state(power)
            if abs(steady[0] - temp) < 0.005:
                self.network.settle(power)
                return steady[0]
            temp = temp + 0.5 * (steady[0] - temp)
        self.network.settle(power_fn(temp, 0.0))
        return self.network.die_temp_c

    def run(
        self,
        power_fn: PowerFunction,
        duration_s: float,
        dt_s: float = 0.1,
    ) -> list[TraceSample]:
        """Integrate for ``duration_s``, sampling every ``dt_s``."""
        if duration_s <= 0 or dt_s <= 0:
            raise ValueError("duration and dt must be positive")
        samples: list[TraceSample] = []
        steps = int(round(duration_s / dt_s))
        t = 0.0
        for _ in range(steps):
            die_temp = self.network.die_temp_c
            power = power_fn(die_temp, t)
            self.network.step(power, dt_s)
            t += dt_s
            samples.append(
                TraceSample(
                    time_s=t,
                    power_w=power,
                    die_temp_c=self.network.die_temp_c,
                    surface_temp_c=self.network.temps[-1],
                )
            )
        return samples

    @staticmethod
    def hysteresis_area(
        samples: Sequence[TraceSample],
    ) -> float:
        """Signed shoelace area of the power-temperature orbit — the
        quantitative size of the Figure 18 hysteresis loop (W x degC)."""
        if len(samples) < 3:
            return 0.0
        area = 0.0
        n = len(samples)
        for i in range(n):
            a = samples[i]
            b = samples[(i + 1) % n]
            area += (
                a.surface_temp_c * b.power_w - b.surface_temp_c * a.power_w
            )
        return abs(area) / 2.0
