"""Pluggable governor policies.

Each policy sees a :class:`PolicyTick` per monitor sample (one object
per run, updated in place) and returns the ladder level to hold for
the next tick. Policies advertise the invariants they guarantee
through two attributes the controller copies onto the trace for
:meth:`repro.check.CheckSuite.check_governor`:

* ``cap_w`` — a power budget the policy enforces (``None`` if it does
  not cap);
* ``min_dwell_s`` — the minimum spacing it guarantees between
  actuations (0 if it may actuate on consecutive ticks).

The capping policies are *sound by construction*: before committing an
upward move (or, with protection enabled, any level) they price the
candidate rung through the tick's ``predict_w`` model and refuse rungs
over budget, so the applied power can only exceed the cap if even the
bottom rung does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.governor.ladder import LadderStep


@dataclass(slots=True)
class PolicyTick:
    """Everything a policy may look at on one 17 Hz sample.

    :meth:`Governor.run <repro.governor.controller.Governor.run>` keeps
    one tick per run and updates its fields in place each sample, so a
    tick is valid only during :meth:`GovernorPolicy.decide`.
    """

    k: int
    t_s: float
    dt_s: float
    die_temp_c: float
    #: Power as the board instruments report it (noisy, quantized).
    measured_w: float
    level: int
    ladder: tuple[LadderStep, ...]
    work_done_cycles: float
    #: Model power if the chip held ``level`` at the current die
    #: temperature — the controller's plant model.
    predict_w: Callable[[int], float]

    @property
    def n_levels(self) -> int:
        return len(self.ladder)


class GovernorPolicy:
    """Base class; subclasses override :meth:`start` and :meth:`decide`."""

    #: See module docstring; the trace checker reads these.
    cap_w: float | None = None
    min_dwell_s: float = 0.0

    def start(self, n_levels: int) -> int:
        """Reset internal state; return the initial ladder level."""
        return n_levels - 1

    def decide(self, tick: PolicyTick) -> int:
        raise NotImplementedError


class StaticPolicy(GovernorPolicy):
    """No governing at all: hold one level (the baseline arm)."""

    def __init__(self, level: int | None = None):
        self._level = level

    def start(self, n_levels: int) -> int:
        if self._level is None:
            return n_levels - 1
        if not 0 <= self._level < n_levels:
            raise ValueError("static level outside the ladder")
        return self._level

    def decide(self, tick: PolicyTick) -> int:
        return tick.level


class ThermalTripPolicy(GovernorPolicy):
    """Hysteretic reactive thermal throttling with a dwell time.

    Drop one rung when the die crosses ``trip_c``, restore one rung
    below ``clear_c`` — the classic trip/clear pair — but never two
    actuations closer than ``min_dwell_s`` (one thermal time constant
    in the scenarios), which is what keeps the hysteresis from
    chattering when the die sits near a threshold.
    """

    def __init__(self, trip_c: float, clear_c: float, min_dwell_s: float):
        if clear_c >= trip_c:
            raise ValueError("clear temperature must be below trip")
        if min_dwell_s < 0:
            raise ValueError("dwell must be non-negative")
        self.trip_c = trip_c
        self.clear_c = clear_c
        self.min_dwell_s = min_dwell_s
        self._last_act_t: float | None = None

    def start(self, n_levels: int) -> int:
        self._last_act_t = None
        return n_levels - 1

    def decide(self, tick: PolicyTick) -> int:
        if (
            self._last_act_t is not None
            and tick.t_s - self._last_act_t < self.min_dwell_s - 1e-12
        ):
            return tick.level  # still dwelling
        if tick.die_temp_c >= self.trip_c and tick.level > 0:
            self._last_act_t = tick.t_s
            return tick.level - 1
        if tick.die_temp_c <= self.clear_c and tick.level < tick.n_levels - 1:
            self._last_act_t = tick.t_s
            return tick.level + 1
        return tick.level


class ReactiveCapPolicy(GovernorPolicy):
    """RAPL-style power capping, re-solved every tick.

    Each sample picks the *highest* rung whose model power at the
    current die temperature fits the budget, jumping multiple rungs at
    once if a workload phase demands it. Sound by construction whenever
    the bottom rung itself fits.
    """

    def __init__(self, cap_w: float):
        if cap_w <= 0:
            raise ValueError("cap must be positive")
        self.cap_w = cap_w

    def start(self, n_levels: int) -> int:
        return 0

    def decide(self, tick: PolicyTick) -> int:
        for level in range(tick.n_levels - 1, 0, -1):
            if tick.predict_w(level) <= self.cap_w:
                return level
        return 0


class PIPowerCapPolicy(GovernorPolicy):
    """A PI power-capping controller over the board's measured power.

    Velocity-form PI on the normalized budget error drives a continuous
    level command which is rounded onto the ladder; clamping the
    command to the ladder ends doubles as anti-windup. With
    ``protective=True`` (the default) a hard over-power protection
    stage walks any commanded rung down until the model prices it
    within budget — the safety net real controllers put after the
    tuned loop. Disabling it exposes the raw PI, which a mis-tuned
    gain set will happily pin over budget; the governor check suite
    exists to catch exactly that.
    """

    def __init__(
        self,
        cap_w: float,
        kp: float = 2.0,
        ki: float = 1.2,
        protective: bool = True,
    ):
        if cap_w <= 0:
            raise ValueError("cap must be positive")
        self.cap_w = cap_w
        self.kp = kp
        self.ki = ki
        self.protective = protective
        self._x = 0.0
        self._prev_e: float | None = None

    def start(self, n_levels: int) -> int:
        self._x = 0.0
        self._prev_e = None
        return 0

    def decide(self, tick: PolicyTick) -> int:
        e = (self.cap_w - tick.measured_w) / self.cap_w
        if self._prev_e is None:
            self._prev_e = e
        self._x += self.kp * (e - self._prev_e) + self.ki * tick.dt_s * e
        self._prev_e = e
        self._x = min(max(self._x, 0.0), float(tick.n_levels - 1))
        target = int(math.floor(self._x + 0.5))
        if self.protective:
            while target > 0 and tick.predict_w(target) > self.cap_w:
                target -= 1
        return target


class RaceToIdlePolicy(GovernorPolicy):
    """Finish a fixed work quantum flat out, then drop to the bottom.

    The classic energy question: sprint at the top rung and idle the
    remainder, betting that time-proportional (leakage + clock) energy
    saved by finishing early beats the CV^2 premium of the sprint.
    """

    def __init__(self, work_cycles: float):
        if work_cycles <= 0:
            raise ValueError("work quantum must be positive")
        self.work_cycles = work_cycles

    def decide(self, tick: PolicyTick) -> int:
        if tick.work_done_cycles >= self.work_cycles:
            return 0
        return tick.n_levels - 1


class PaceToDeadlinePolicy(GovernorPolicy):
    """Run the slowest rung that still makes the deadline.

    Every tick re-derives the required rate from remaining work over
    remaining time, so throttling by other causes (or a generous
    deadline) automatically lowers the pace — the just-in-time
    counterpart to :class:`RaceToIdlePolicy`.
    """

    def __init__(self, work_cycles: float, deadline_s: float):
        if work_cycles <= 0:
            raise ValueError("work quantum must be positive")
        if deadline_s <= 0:
            raise ValueError("deadline must be positive")
        self.work_cycles = work_cycles
        self.deadline_s = deadline_s

    def start(self, n_levels: int) -> int:
        return 0

    def decide(self, tick: PolicyTick) -> int:
        remaining = self.work_cycles - tick.work_done_cycles
        if remaining <= 0:
            return 0
        time_left = self.deadline_s - tick.t_s
        if time_left <= tick.dt_s:
            return tick.n_levels - 1  # past due: flat out
        required_hz = remaining / time_left
        for level, step in enumerate(tick.ladder):
            if step.freq_hz >= required_hz:
                return level
        return tick.n_levels - 1
