"""The closed control loop: sample at 17 Hz, decide, actuate, step.

:class:`Governor` wires a policy to the live coupled model: every
monitor tick it reads the die temperature and the board-measured power,
lets the policy pick a ladder level, actuates (V, f) and re-prices the
chip if the level changed, and advances the thermal network one tick.
The resulting :class:`GovernedTrace` carries the full sample series
plus the ledger totals and the invariant metadata (cap, dwell, settle
window, disturbance times) that
:meth:`repro.check.CheckSuite.check_governor` audits.

Timestamps are computed as ``k / poll_hz`` from the tick index — never
accumulated — so the actuation-on-tick-grid invariant holds exactly.

A tick costs its arithmetic: each :class:`GovernorSample` is a
NamedTuple, the policy sees one :class:`PolicyTick` updated in place,
and the held rung's price is the power applied unless the policy
actuates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

from repro.board import MONITOR_POLL_HZ
from repro.governor.ladder import LadderStep
from repro.governor.policies import GovernorPolicy, PolicyTick
from repro.governor.telemetry import PowerTelemetry
from repro.thermal.cooling import CoolingSetup
from repro.thermal.rc_network import ThermalNetwork

#: power(step, die_temp_c, t_s) -> watts: chip + workload at a ladder
#: point and temperature (the leakage-temperature coupling rides the
#: temp argument). Must be a pure function of its arguments: the loop
#: reuses a tick's price when the policy keeps the level.
PowerFn = Callable[[LadderStep, float, float], float]

#: event(t_s, network) -> None: scenario disturbances applied at tick
#: boundaries (e.g. a fan failing).
EventFn = Callable[[float, ThermalNetwork], None]

#: Version of the :meth:`GovernedTrace.to_dict` document.
GOVERNED_TRACE_SCHEMA_VERSION = 1


class GovernorSample(NamedTuple):
    """One 17 Hz control tick, post-actuation."""

    t_s: float
    level: int
    vdd: float
    freq_hz: float
    #: True model power applied over this tick (what the invariants
    #: judge).
    power_w: float
    #: What the board instruments reported to the policy.
    measured_w: float
    #: Die temperature at the end of the tick.
    die_temp_c: float
    actuated: bool


@dataclass
class GovernedTrace:
    """A governed run: samples, ledgers, and invariant metadata."""

    poll_hz: float
    n_levels: int
    cap_w: float | None = None
    min_dwell_s: float = 0.0
    #: Violations inside ``settle_s`` of t=0 or of any disturbance are
    #: transients the policy is still answering; the cap invariant
    #: exempts them.
    settle_s: float = 0.0
    disturbances_s: tuple[float, ...] = ()
    energy_j: float = 0.0
    work_cycles: float = 0.0
    samples: list[GovernorSample] = field(default_factory=list)

    # ------------------------------------------------------------- counters
    @property
    def gov_samples(self) -> int:
        return len(self.samples)

    @property
    def gov_actuations(self) -> int:
        return sum(1 for s in self.samples if s.actuated)

    def in_settle_window(self, t_s: float) -> bool:
        """True while the cap invariant gives the policy slack at
        ``t_s``: within ``settle_s`` of the start or a disturbance."""
        for origin in (0.0,) + self.disturbances_s:
            if origin <= t_s < origin + self.settle_s:
                return True
        return False

    def cap_violations(self) -> int:
        """Samples over budget outside every settle window."""
        if self.cap_w is None:
            return 0
        return sum(
            1
            for s in self.samples
            if s.power_w > self.cap_w * (1.0 + 1e-9)
            and not self.in_settle_window(s.t_s)
        )

    # -------------------------------------------------------------- summary
    def peak_temp_c(self) -> float:
        return max(s.die_temp_c for s in self.samples)

    def mean_freq_hz(self) -> float:
        return sum(s.freq_hz for s in self.samples) / len(self.samples)

    def mean_power_w(self) -> float:
        return sum(s.power_w for s in self.samples) / len(self.samples)

    def throttled_fraction(self) -> float:
        top = self.n_levels - 1
        return sum(1 for s in self.samples if s.level < top) / len(
            self.samples
        )

    def actuation_times(self) -> list[float]:
        return [s.t_s for s in self.samples if s.actuated]

    def completion_time_s(self, work_cycles: float) -> float | None:
        """When the running work integral first reaches ``work_cycles``
        (None if the trace never gets there)."""
        done = 0.0
        dt = 1.0 / self.poll_hz
        for s in self.samples:
            done += s.freq_hz * dt
            if done >= work_cycles:
                return s.t_s + dt
        return None

    # ----------------------------------------------------------------- json
    def to_dict(self) -> dict[str, object]:
        return {
            "schema_version": GOVERNED_TRACE_SCHEMA_VERSION,
            "poll_hz": self.poll_hz,
            "n_levels": self.n_levels,
            "cap_w": self.cap_w,
            "min_dwell_s": self.min_dwell_s,
            "settle_s": self.settle_s,
            "disturbances_s": list(self.disturbances_s),
            "energy_j": self.energy_j,
            "work_cycles": self.work_cycles,
            "t_s": [s.t_s for s in self.samples],
            "level": [s.level for s in self.samples],
            "vdd": [s.vdd for s in self.samples],
            "freq_hz": [s.freq_hz for s in self.samples],
            "power_w": [s.power_w for s in self.samples],
            "measured_w": [s.measured_w for s in self.samples],
            "die_temp_c": [s.die_temp_c for s in self.samples],
            "actuated": [s.actuated for s in self.samples],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "GovernedTrace":
        version = data.get("schema_version")
        if version != GOVERNED_TRACE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported governed-trace schema_version {version!r} "
                f"(supported: {GOVERNED_TRACE_SCHEMA_VERSION})"
            )
        trace = cls(
            poll_hz=data["poll_hz"],
            n_levels=data["n_levels"],
            cap_w=data["cap_w"],
            min_dwell_s=data["min_dwell_s"],
            settle_s=data["settle_s"],
            disturbances_s=tuple(data["disturbances_s"]),
            energy_j=data["energy_j"],
            work_cycles=data["work_cycles"],
        )
        for i in range(len(data["t_s"])):
            trace.samples.append(
                GovernorSample(
                    t_s=data["t_s"][i],
                    level=data["level"][i],
                    vdd=data["vdd"][i],
                    freq_hz=data["freq_hz"][i],
                    power_w=data["power_w"][i],
                    measured_w=data["measured_w"][i],
                    die_temp_c=data["die_temp_c"][i],
                    actuated=data["actuated"][i],
                )
            )
        return trace


class Governor:
    """Closed-loop chip power controller at the monitor poll rate."""

    def __init__(
        self,
        ladder: tuple[LadderStep, ...],
        policy: GovernorPolicy,
        power_fn: PowerFn,
        cooling: CoolingSetup,
        *,
        poll_hz: float = MONITOR_POLL_HZ,
        telemetry: PowerTelemetry | None = None,
        settle_s: float = 0.0,
        disturbances_s: tuple[float, ...] = (),
        event_fn: EventFn | None = None,
        warm_start: bool = True,
        checker=None,
    ):
        if not ladder:
            raise ValueError("ladder must have at least one step")
        if poll_hz <= 0:
            raise ValueError("poll rate must be positive")
        self.ladder = tuple(ladder)
        self.policy = policy
        self.power_fn = power_fn
        self.cooling = cooling
        self.poll_hz = poll_hz
        self.telemetry = telemetry
        self.settle_s = settle_s
        self.disturbances_s = tuple(disturbances_s)
        self.event_fn = event_fn
        self.warm_start = warm_start
        self.checker = checker

    def _warm_start(
        self, network: ThermalNetwork, step: LadderStep
    ) -> None:
        """Settle the network at the initial operating point.

        The steady power depends on the steady temperature through
        leakage, so solve the small fixed point first.
        """
        temp = network.ambient_c
        for _ in range(60):
            power = self.power_fn(step, temp, 0.0)
            new_temp = network.ambient_c + power * network.total_resistance
            if abs(new_temp - temp) < 0.01:
                break
            temp = new_temp
        network.settle(power)

    def run(self, duration_s: float) -> GovernedTrace:
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        ladder = self.ladder
        n = len(ladder)
        network = self.cooling.network()
        level = min(max(self.policy.start(n), 0), n - 1)
        if self.warm_start:
            self._warm_start(network, ladder[level])
        trace = GovernedTrace(
            poll_hz=self.poll_hz,
            n_levels=n,
            cap_w=self.policy.cap_w,
            min_dwell_s=self.policy.min_dwell_s,
            settle_s=self.settle_s,
            disturbances_s=self.disturbances_s,
        )
        poll_hz = self.poll_hz
        dt = 1.0 / poll_hz
        ticks = int(round(duration_s * poll_hz))
        power_fn = self.power_fn
        event_fn = self.event_fn
        telemetry = self.telemetry
        read_w = None if telemetry is None else telemetry.read_power_w
        decide = self.policy.decide
        advance = network.step
        append = trace.samples.append
        tick = PolicyTick(0, 0.0, dt, 0.0, 0.0, level, ladder, 0.0, None)
        # Prices a rung at the tick's die temperature and time.
        tick.predict_w = lambda lv: power_fn(
            ladder[lv], tick.die_temp_c, tick.t_s
        )
        step = ladder[level]
        energy_j = 0.0
        work_cycles = 0.0
        for k in range(ticks):
            t = k / poll_hz
            if event_fn is not None:
                event_fn(t, network)
            temp = network.temps[0]
            power = power_fn(step, temp, t)
            measured = power if read_w is None else read_w(power, step.vdd)
            tick.k = k
            tick.t_s = t
            tick.die_temp_c = temp
            tick.measured_w = measured
            tick.level = level
            tick.work_done_cycles = work_cycles
            new_level = decide(tick)
            if new_level < 0:
                new_level = 0
            elif new_level >= n:
                new_level = n - 1
            actuated = new_level != level
            if actuated:
                level = new_level
                step = ladder[level]
                power = power_fn(step, temp, t)
            die_c = advance(power, dt)
            energy_j += power * dt
            work_cycles += step.freq_hz * dt
            append(GovernorSample(
                t, level, step.vdd, step.freq_hz, power, measured, die_c,
                actuated,
            ))
        trace.energy_j = energy_j
        trace.work_cycles = work_cycles
        if self.checker is not None:
            self.checker.check_governor(trace)
        return trace
