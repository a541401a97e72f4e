"""The assembled experimental system (paper Figure 3).

:class:`PitonTestBoard` wires supplies, sense resistors, and monitors;
:class:`ExperimentalSystem` adds the chip (a persona + power model),
the cooling stack, and the measurement protocol, exposing the
operations every experiment performs: set the operating point, run a
workload's event ledger through the power model, let the die settle
thermally, and take the standard 128-sample measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp
from typing import NamedTuple

from repro.arch.params import DEFAULT_MEASUREMENT, MeasurementDefaults
from repro.board.monitor import MeasurementProtocol, RailMeasurement
from repro.board.psu import BenchSupply
from repro.power.calibration import Calibration, DEFAULT_CALIBRATION
from repro.power.chip_power import (
    ChipPowerModel,
    IdleCurve,
    OperatingPoint,
    RailPower,
)
from repro.silicon.variation import CHIP2, ChipPersona
from repro.thermal.cooling import STOCK_HEATSINK_FAN, CoolingSetup
from repro.util.events import EventLedger
from repro.util.rng import RngFactory


class ThermalRunaway(RuntimeError):
    """The die never settles thermally: no steady state to measure."""


class Settled(NamedTuple):
    """A die at thermal steady state, before the monitors read it."""

    temp_c: float
    power: RailPower
    #: The rail voltages it was priced at, as the board reports them.
    voltages: dict[str, float]


@dataclass
class PitonTestBoard:
    """Rails and instruments of the custom PCB."""

    rngs: RngFactory = field(default_factory=lambda: RngFactory(0))
    vdd_supply: BenchSupply = field(
        default_factory=lambda: BenchSupply("VDD bench", 1.00)
    )
    vcs_supply: BenchSupply = field(
        default_factory=lambda: BenchSupply("VCS bench", 1.05)
    )
    vio_supply: BenchSupply = field(
        default_factory=lambda: BenchSupply("VIO bench", 1.80)
    )

    def protocol(self) -> MeasurementProtocol:
        return MeasurementProtocol(self.rngs.stream("monitor"))

    def set_rails(self, vdd: float, vcs: float, vio: float = 1.80) -> None:
        self.vdd_supply.set_voltage(vdd)
        self.vcs_supply.set_voltage(vcs)
        self.vio_supply.set_voltage(vio)

    def rail_voltages(self) -> dict[str, float]:
        """Voltages at the socket pins (remote sense holds setpoints)."""
        return {
            "vdd": self.vdd_supply.voltage_at_load(0.0),
            "vcs": self.vcs_supply.voltage_at_load(0.0),
            "vio": self.vio_supply.voltage_at_load(0.0),
        }


class ExperimentalSystem:
    """Board + chip + cooling: the thing experiments drive."""

    def __init__(
        self,
        persona: ChipPersona = CHIP2,
        calib: Calibration = DEFAULT_CALIBRATION,
        cooling: CoolingSetup = STOCK_HEATSINK_FAN,
        defaults: MeasurementDefaults = DEFAULT_MEASUREMENT,
        seed: int = 0,
    ):
        self.persona = persona
        self.calib = calib
        self.cooling = cooling
        self.defaults = defaults
        self.board = PitonTestBoard(rngs=RngFactory(seed))
        self.board.set_rails(defaults.vdd, defaults.vcs, defaults.vio)
        self.power_model = ChipPowerModel(persona, calib)
        self.freq_hz = defaults.core_clock_hz
        self._protocol = self.board.protocol()

    # ----------------------------------------------------------- configuration
    def set_operating_point(
        self, vdd: float, vcs: float, freq_hz: float, vio: float = 1.80
    ) -> None:
        self.board.set_rails(vdd, vcs, vio)
        self.freq_hz = freq_hz

    def operating_point(
        self, temp_c: float, rails: dict[str, float] | None = None
    ) -> OperatingPoint:
        """The operating point at ``temp_c`` on ``rails`` (read from
        the board when ``None``)."""
        rails = rails or self.board.rail_voltages()
        return OperatingPoint(
            vdd=rails["vdd"],
            vcs=rails["vcs"],
            vio=rails["vio"],
            freq_hz=self.freq_hz,
            temp_c=temp_c,
        )

    # --------------------------------------------------------------- thermal
    def settle_temperature(
        self,
        ledger: EventLedger | None = None,
        window_cycles: float | None = None,
    ) -> float:
        """Die temperature once the power-thermal loop settles."""
        return self.settled(ledger, window_cycles).temp_c

    def settled(
        self,
        ledger: EventLedger | None = None,
        window_cycles: float | None = None,
    ) -> Settled:
        """Settle the die under ``ledger``'s activity over
        ``window_cycles`` (an idle chip for ``None``): its temperature
        and true rail power, priced on one read of the rails."""
        rails = self.board.rail_voltages()
        op = self.operating_point(self.cooling.ambient_c, rails)
        curve = self.power_model.idle_curve(op)
        activity = self._activity_power(ledger, window_cycles, op)
        temp = self._settle(curve, activity)
        return Settled(temp, self._true_power(curve, temp, activity), rails)

    def _idle_curve(self) -> IdleCurve:
        """Idle power at the rails' (V, f): fixed while the die
        temperature settles."""
        return self.power_model.idle_curve(
            self.operating_point(self.cooling.ambient_c)
        )

    def _activity_power(
        self,
        ledger: EventLedger | None,
        window_cycles: float | None,
        op: OperatingPoint | None = None,
    ) -> RailPower | None:
        """The ledger's event power at ``op`` (the rails at ambient by
        default), ``None`` for an idle chip.

        Event power does not depend on die temperature, so one
        measurement prices its ledger once, outside the settle loop.
        """
        if ledger is None:
            return None
        if window_cycles is None:
            raise ValueError("workload power needs a cycle window")
        return self.power_model.event_power(
            ledger,
            window_cycles,
            op or self.operating_point(self.cooling.ambient_c),
        )

    def _settle(self, curve: IdleCurve, activity: RailPower | None) -> float:
        """Damped steps of ``_true_power(...).total_w`` on floats, summed
        in its order (idle adds 0.0 per rail). Raises ThermalRunaway
        unless they converge below the leakage clamp."""
        c, act = curve, activity or RailPower(0.0, 0.0, 0.0)
        vio_w = c.vio_idle_w + act.vio_w
        ambient, r_ja = self.cooling.ambient_c, self.cooling.r_ja
        temp = ambient
        for _ in range(100):
            t_term = c.leak_per_degc * (temp - c.t_ref_c)
            vdd_x, vcs_x = c.vdd_v_term + t_term, c.vcs_v_term + t_term
            vdd_w = c.vdd_leak_w * exp(min(vdd_x, 40.0)) + c.clk_vdd_w
            vcs_w = c.vcs_leak_w * exp(min(vcs_x, 40.0)) + c.clk_vcs_w
            power = ((vdd_w + act.vdd_w) + (vcs_w + act.vcs_w)) + vio_w
            new_temp = ambient + r_ja * power
            if abs(new_temp - temp) < 0.01 and max(vdd_x, vcs_x) < 40.0:
                return new_temp
            temp += 0.5 * (new_temp - temp)
        raise self._runaway(temp)

    def _runaway(self, temp_c: float) -> ThermalRunaway:
        op = self.operating_point(temp_c)
        return ThermalRunaway(
            f"thermal runaway: {self.persona.name} at VDD {op.vdd:g} V, "
            f"VCS {op.vcs:g} V, {op.freq_hz / 1e6:g} MHz never settles"
        )

    @staticmethod
    def _true_power(
        curve: IdleCurve, temp_c: float, activity: RailPower | None
    ) -> RailPower:
        power = curve.rails(temp_c)
        return power if activity is None else power + activity

    # ------------------------------------------------------------ measurement
    def measure_static(self) -> RailMeasurement:
        """Inputs and clocks grounded (Table V 'static'). Raises
        ThermalRunaway when 50 undamped steps leave the die still
        moving or its leakage exponent on the clamp."""
        # No clock, (almost) no self-heating: settle at static power.
        curve = self._idle_curve()
        temp = self.cooling.ambient_c
        for _ in range(50):
            power = curve.static_rails(temp).total_w
            before = temp
            temp = self.cooling.ambient_c + self.cooling.r_ja * power
        t_term = curve.leak_per_degc * (temp - curve.t_ref_c)
        exponent = max(curve.vdd_v_term, curve.vcs_v_term) + t_term
        if abs(temp - before) >= 0.01 or exponent >= 40.0:
            raise self._runaway(temp)
        power = curve.static_rails(temp)
        return self._protocol.measure_steady(power, self.board.rail_voltages())

    def measure_idle(self) -> RailMeasurement:
        """Clocks driven, resets released, no activity (Table V 'idle')."""
        return self.measure_workload(None, None)

    def measure_workload(
        self,
        ledger: EventLedger | None,
        window_cycles: float | None,
    ) -> RailMeasurement:
        """The standard steady-state measurement of a running workload."""
        settled = self.settled(ledger, window_cycles)
        return self._protocol.measure_steady(settled.power, settled.voltages)

    def true_total_power_w(
        self,
        ledger: EventLedger | None = None,
        window_cycles: float | None = None,
    ) -> float:
        """Noise-free model power at the settled temperature (for
        tests and cross-checks, not for experiment outputs)."""
        return self.settled(ledger, window_cycles).power.total_w
