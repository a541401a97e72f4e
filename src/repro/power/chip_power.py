"""Rail-level power aggregation: events + operating point -> watts.

This is the model the virtual test board "measures". Given an event
ledger covering ``window_cycles`` of simulated time at an operating
point, it returns per-rail power:

    P_rail = static(V, T) + clock(V, f) + sum(events) / window_time

mirroring how the real chip's measured power decomposes in Figures 10
and 16.

Static and clock power at one (V, f) differ across die temperatures
only through the leakage exponential, so :class:`IdleCurve` folds
every other factor once per operating point and prices a temperature
with one ``exp`` per rail. ``static_power`` and ``idle_power`` are
one-line calls into a fresh curve; loops that hold (V, f) while the
die temperature moves hold one curve instead: the board's thermal
settle and static measurement
(:class:`repro.board.testboard.ExperimentalSystem`), the V/f boot
solve (:meth:`repro.power.vf_curve.VfCurve.steady_temp_c`) and the
governor plant (:func:`repro.governor.scenarios.build_power_fn`, one
curve per ladder rung). A curve performs the same floating-point
operations in the same order as pricing a fresh operating point, so
both give bit-identical watts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp

from repro.power.calibration import Calibration, DEFAULT_CALIBRATION
from repro.power.technology import clock_power_w
from repro.silicon.variation import ChipPersona, TYPICAL
from repro.util.events import EventLedger

PJ = 1e-12


@dataclass(frozen=True)
class OperatingPoint:
    """Voltages, clock, and die temperature for one measurement."""

    vdd: float = 1.00
    vcs: float = 1.05
    vio: float = 1.80
    freq_hz: float = 500.05e6
    temp_c: float = 25.0

    def __post_init__(self) -> None:
        if self.freq_hz <= 0:
            raise ValueError("frequency must be positive")
        for name in ("vdd", "vcs", "vio"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class RailPower:
    """Per-rail power in watts."""

    vdd_w: float
    vcs_w: float
    vio_w: float

    @property
    def total_w(self) -> float:
        return self.vdd_w + self.vcs_w + self.vio_w

    @property
    def core_w(self) -> float:
        """VDD + VCS: what the paper's EPI/EPF methodology sums."""
        return self.vdd_w + self.vcs_w

    def __add__(self, other: "RailPower") -> "RailPower":
        return RailPower(
            self.vdd_w + other.vdd_w,
            self.vcs_w + other.vcs_w,
            self.vio_w + other.vio_w,
        )


class IdleCurve:
    """Static and idle power at one operating point's (V, f) as a
    function of die temperature.

    Everything except the leakage exponential's temperature term is
    folded at construction: the leakage prefactors, the voltage terms
    of the exponents, the clock trees and the VIO constants. Each
    method then does exactly the operations (and in exactly the order)
    the unfolded relations in :mod:`repro.power.technology` do, so the
    watts are bit-identical to them.
    """

    __slots__ = (
        "leak_per_degc",
        "t_ref_c",
        "vdd_v_term",
        "vcs_v_term",
        "vdd_leak_w",
        "vcs_leak_w",
        "clk_vdd_w",
        "clk_vcs_w",
        "vio_static_w",
        "vio_idle_w",
    )

    def __init__(
        self, op: OperatingPoint, persona: ChipPersona, calib: Calibration
    ):
        total_nom = calib.static_total_w * persona.leak
        self.leak_per_degc = calib.leak_per_degc
        self.t_ref_c = calib.t_ref_c
        self.vdd_v_term = calib.leak_per_volt * (op.vdd - calib.vdd_nom)
        self.vcs_v_term = calib.leak_per_volt * (op.vcs - calib.vcs_nom)
        self.vdd_leak_w = total_nom * calib.static_vdd_frac
        self.vcs_leak_w = total_nom * (1.0 - calib.static_vdd_frac)
        self.clk_vdd_w, self.clk_vcs_w = clock_power_w(
            op.vdd, op.vcs, op.freq_hz, persona, calib
        )
        # VIO static: receiver bias + board-side pullups, small; idle
        # adds the always-running I/O clock.
        self.vio_static_w = 0.012 * (op.vio / calib.vio_nom) ** 2
        self.vio_idle_w = (
            self.vio_static_w + 0.055 * (op.vio / calib.vio_nom) ** 2
        )

    def _leakage(self, temp_c: float) -> tuple[float, float]:
        """(VDD, VCS) static watts at ``temp_c``."""
        t_term = self.leak_per_degc * (temp_c - self.t_ref_c)
        # Clamp: beyond this the operating point is deep in thermal
        # runaway and callers only need "very large", not infinity.
        return (
            self.vdd_leak_w * exp(min(self.vdd_v_term + t_term, 40.0)),
            self.vcs_leak_w * exp(min(self.vcs_v_term + t_term, 40.0)),
        )

    def static_rails(self, temp_c: float) -> RailPower:
        """All inputs grounded, clocks stopped."""
        vdd_w, vcs_w = self._leakage(temp_c)
        return RailPower(vdd_w, vcs_w, self.vio_static_w)

    def rails(self, temp_c: float) -> RailPower:
        """Clocks running, no activity."""
        vdd_w, vcs_w = self._leakage(temp_c)
        return RailPower(
            vdd_w + self.clk_vdd_w, vcs_w + self.clk_vcs_w, self.vio_idle_w
        )

    def total_w(self, temp_c: float) -> float:
        """``rails(temp_c).total_w`` without building the rails: the
        operations of :meth:`_leakage` inlined, in the same order."""
        t_term = self.leak_per_degc * (temp_c - self.t_ref_c)
        vdd_w = self.vdd_leak_w * exp(min(self.vdd_v_term + t_term, 40.0))
        vcs_w = self.vcs_leak_w * exp(min(self.vcs_v_term + t_term, 40.0))
        return (
            (vdd_w + self.clk_vdd_w) + (vcs_w + self.clk_vcs_w)
        ) + self.vio_idle_w


class ChipPowerModel:
    """Prices a chip persona's power at an operating point."""

    def __init__(
        self,
        persona: ChipPersona = TYPICAL,
        calib: Calibration = DEFAULT_CALIBRATION,
    ):
        self.persona = persona
        self.calib = calib

    # ----------------------------------------------------------------- pieces
    def idle_curve(self, op: OperatingPoint) -> IdleCurve:
        """Static and idle power at ``op``'s (V, f) for any die
        temperature (``op.temp_c`` is not used)."""
        return IdleCurve(op, self.persona, self.calib)

    def static_power(self, op: OperatingPoint) -> RailPower:
        """All inputs grounded, clocks stopped (the Fig 10 'static')."""
        return self.idle_curve(op).static_rails(op.temp_c)

    def idle_power(self, op: OperatingPoint) -> RailPower:
        """Clocks running, resets released, no activity (Fig 10 'idle').

        Includes the always-running I/O clock on the VIO rail.
        """
        return self.idle_curve(op).rails(op.temp_c)

    def event_power(
        self,
        ledger: EventLedger,
        window_cycles: float,
        op: OperatingPoint,
    ) -> RailPower:
        """Activity power from recorded events over a cycle window."""
        if window_cycles <= 0:
            raise ValueError("window must cover at least one cycle")
        window_s = window_cycles / op.freq_hz
        s_vdd = (op.vdd / self.calib.vdd_nom) ** 2
        s_vcs = (op.vcs / self.calib.vcs_nom) ** 2
        s_vio = (op.vio / self.calib.vio_nom) ** 2
        vdd_j = vcs_j = vio_j = 0.0
        for name, count in ledger.counts.items():
            price = self.calib.energy_for(name)
            if price is None or count == 0:
                continue
            activity = ledger.mean_activity(name)
            energy_pj = count * (price.base_pj + price.act_pj * activity)
            energy_j = energy_pj * PJ * self.persona.dyn
            if price.rail == "io":
                vio_j += energy_j * s_vio
            else:
                vdd_j += energy_j * s_vdd * price.vdd_frac
                vcs_j += energy_j * s_vcs * (1.0 - price.vdd_frac)
        return RailPower(vdd_j / window_s, vcs_j / window_s, vio_j / window_s)

    # ------------------------------------------------------------------ total
    def total_power(
        self,
        ledger: EventLedger,
        window_cycles: float,
        op: OperatingPoint,
    ) -> RailPower:
        """Idle baseline plus activity power."""
        return self.idle_power(op) + self.event_power(
            ledger, window_cycles, op
        )

    def unknown_events(self, ledger: EventLedger) -> list[str]:
        """Event names the calibration does not price (should be none
        in a healthy run; surfaced for tests)."""
        return sorted(
            name
            for name, count in ledger.counts.items()
            if count > 0 and self.calib.energy_for(name) is None
        )
