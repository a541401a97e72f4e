"""Declarative governor scenarios (picklable, pool-friendly).

A :class:`ScenarioSpec` is a frozen value object naming everything a
governed run needs — persona, cooling stack, VDD grid, workload
phases, policy and its knobs, disturbance events, telemetry seed — and
:func:`run_scenario` is the module-level function that executes one.
Both are picklable, so the ctl experiments fan scenario arms across
:class:`~repro.resilience.SupervisedPool` workers and get
bit-identical traces serial or parallel (the telemetry stream is
seeded per spec, and :class:`~repro.power.vf_curve.VfCurve`'s memo
cache is a pure-function cache).

The workload is piecewise-constant activity power quoted at the
nominal operating point (1.0 V / 500.05 MHz) and rescaled to the
commanded rung as ``a * (f / f_nom) * (VDD / VDD_nom)^2`` — the same
shape the DTM ablation uses. Phase starts and fan events are reported
to the trace as disturbances so the cap invariant knows where
re-settle transients are legitimate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.governor.controller import Governor, GovernedTrace, PowerFn
from repro.governor.ladder import DEFAULT_VDD_GRID, LadderStep, vf_ladder
from repro.governor.policies import (
    GovernorPolicy,
    PaceToDeadlinePolicy,
    PIPowerCapPolicy,
    RaceToIdlePolicy,
    ReactiveCapPolicy,
    StaticPolicy,
    ThermalTripPolicy,
)
from repro.governor.telemetry import PowerTelemetry
from repro.power.calibration import DEFAULT_CALIBRATION
from repro.power.chip_power import ChipPowerModel, OperatingPoint
from repro.silicon.variation import PERSONAS
from repro.thermal.cooling import NO_HEATSINK, STOCK_HEATSINK_FAN, CoolingSetup
from repro.thermal.rc_network import ThermalNetwork

#: The default operating point's clock: activity watts in specs are
#: quoted at this frequency and the nominal VDD.
NOMINAL_HZ = 500.05e6

#: Cooling stacks a spec may name.
COOLING_SETUPS: dict[str, CoolingSetup] = {
    "stock": STOCK_HEATSINK_FAN,
    "camera": NO_HEATSINK,
}

#: Policies a spec may name.
POLICY_NAMES = (
    "static",
    "thermal_trip",
    "reactive_cap",
    "pi_cap",
    "race",
    "pace",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """One governed run, fully specified by value."""

    name: str
    policy: str
    persona: str = "chip2"
    cooling: str = "stock"
    vdd_grid: tuple[float, ...] = DEFAULT_VDD_GRID
    duration_s: float = 120.0
    warm_start: bool = True
    #: ((start_s, activity_w_at_nominal), ...) — piecewise constant.
    phases: tuple[tuple[float, float], ...] = ((0.0, 1.45),)
    #: Cap policies.
    cap_w: float | None = None
    kp: float = 2.0
    ki: float = 1.2
    protective: bool = True
    #: Thermal trip policy.
    trip_c: float = 88.0
    clear_c: float = 82.0
    #: None -> one die thermal time constant of the cooling stack.
    dwell_s: float | None = None
    #: Energy policies.
    work_gcycles: float | None = None
    deadline_s: float | None = None
    #: Static baseline.
    fixed_level: int | None = None
    #: Fan-failure event: multiply the final (convective) stage's
    #: resistance by ``fan_r_factor`` at ``fan_fail_s``, restore at
    #: ``fan_recover_s``.
    fan_fail_s: float | None = None
    fan_recover_s: float | None = None
    fan_r_factor: float = 3.0
    #: Board telemetry; None reads true power (noise-free loop).
    sensor_seed: int | None = None
    #: Cap-invariant slack after t=0 and each disturbance.
    settle_s: float = 10.0

    def __post_init__(self) -> None:
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown policy {self.policy!r}; expected one of "
                f"{POLICY_NAMES}"
            )
        if self.persona not in PERSONAS:
            raise ValueError(f"unknown persona {self.persona!r}")
        if self.cooling not in COOLING_SETUPS:
            raise ValueError(f"unknown cooling {self.cooling!r}")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if not self.phases or self.phases[0][0] != 0.0:
            raise ValueError("phases must start at t=0")
        starts = [start for start, _ in self.phases]
        if sorted(starts) != starts or len(set(starts)) != len(starts):
            raise ValueError("phase starts must be strictly ascending")
        if any(watts < 0 for _, watts in self.phases):
            raise ValueError("activity power must be non-negative")
        if self.policy in ("reactive_cap", "pi_cap") and self.cap_w is None:
            raise ValueError(f"policy {self.policy!r} needs cap_w")
        if self.policy in ("race", "pace") and self.work_gcycles is None:
            raise ValueError(f"policy {self.policy!r} needs work_gcycles")
        if self.policy == "pace" and self.deadline_s is None:
            raise ValueError("policy 'pace' needs deadline_s")
        if self.fan_recover_s is not None:
            if self.fan_fail_s is None:
                raise ValueError("fan_recover_s needs fan_fail_s")
            if not self.fan_recover_s > self.fan_fail_s:
                raise ValueError("fan_recover_s must come after fan_fail_s")
        if not self.fan_r_factor > 0:
            raise ValueError("fan_r_factor must be positive")

    # ------------------------------------------------------------ derived
    def disturbance_times(self) -> tuple[float, ...]:
        times = [start for start, _ in self.phases[1:]]
        if self.fan_fail_s is not None:
            times.append(self.fan_fail_s)
        if self.fan_recover_s is not None:
            times.append(self.fan_recover_s)
        return tuple(sorted(times))


#: Leakage-model validity ceiling. The exponential leakage fit is
#: calibrated up to the stability limit; past ``t_max_c + 40`` (the
#: same sentinel band :class:`~repro.power.vf_curve.VfCurve` treats as
#: runaway) we hold leakage at its ceiling value instead of
#: extrapolating without bound, so an ungoverned baseline arm settles
#: at a finite — still obviously unacceptable — temperature rather
#: than overflowing.
T_MODEL_MAX_C = DEFAULT_CALIBRATION.t_max_c + 40.0


def build_power_fn(spec: ScenarioSpec) -> PowerFn:
    """Chip idle power at the rung plus rescaled workload activity.

    Each rung's idle curve and activity scale factors are folded on its
    first use; a tick then prices one curve point and the activity of
    the phase it falls in, found by bisecting the later phases' starts.
    """
    model = ChipPowerModel(PERSONAS[spec.persona], DEFAULT_CALIBRATION)
    vdd_nom = DEFAULT_CALIBRATION.vdd_nom
    later_starts = [start for start, _ in spec.phases[1:]]
    phase_w = [watts for _, watts in spec.phases]
    # step -> (curve's idle watts at a die temperature, f ratio,
    # VDD ratio squared)
    rungs: dict[LadderStep, tuple] = {}

    def power_w(step: LadderStep, die_temp_c: float, t_s: float) -> float:
        rung = rungs.get(step)
        if rung is None:
            op = OperatingPoint(
                vdd=step.vdd, vcs=step.vcs, freq_hz=step.freq_hz
            )
            curve = model.idle_curve(op)
            rung = rungs[step] = (
                curve.total_w,
                step.freq_hz / NOMINAL_HZ,
                (step.vdd / vdd_nom) ** 2,
            )
        idle_w, f_ratio, v_ratio2 = rung
        return idle_w(min(die_temp_c, T_MODEL_MAX_C)) + (
            phase_w[bisect_right(later_starts, t_s)] * f_ratio
        ) * v_ratio2

    return power_w


def build_policy(spec: ScenarioSpec, cooling: CoolingSetup) -> GovernorPolicy:
    if spec.policy == "static":
        return StaticPolicy(spec.fixed_level)
    if spec.policy == "thermal_trip":
        dwell = spec.dwell_s
        if dwell is None:
            dwell = cooling.stages[0].tau_s
        return ThermalTripPolicy(spec.trip_c, spec.clear_c, dwell)
    if spec.policy == "reactive_cap":
        return ReactiveCapPolicy(spec.cap_w)
    if spec.policy == "pi_cap":
        return PIPowerCapPolicy(
            spec.cap_w, spec.kp, spec.ki, spec.protective
        )
    if spec.policy == "race":
        return RaceToIdlePolicy(spec.work_gcycles * 1e9)
    return PaceToDeadlinePolicy(spec.work_gcycles * 1e9, spec.deadline_s)


def build_fan_event(spec: ScenarioSpec, cooling: CoolingSetup):
    """Event hook degrading/restoring the convective stage, or None."""
    if spec.fan_fail_s is None:
        return None
    stage_index = len(cooling.stages) - 1
    base_r = cooling.stages[stage_index].r_c_per_w
    state = {"failed": False}

    def event(t_s: float, network: ThermalNetwork) -> None:
        recover = spec.fan_recover_s
        if not state["failed"] and t_s >= spec.fan_fail_s and (
            recover is None or t_s < recover
        ):
            network.set_stage_resistance(
                stage_index, base_r * spec.fan_r_factor
            )
            state["failed"] = True
        elif state["failed"] and recover is not None and t_s >= recover:
            network.set_stage_resistance(stage_index, base_r)
            state["failed"] = False

    return event


def run_scenario(spec: ScenarioSpec, checker=None) -> GovernedTrace:
    """Execute one scenario end to end.

    Module-level and driven purely by the spec, so
    ``SupervisedPool(run_scenario, jobs).map(specs)`` works and
    reproduces serial results bit for bit.
    """
    cooling = COOLING_SETUPS[spec.cooling]
    ladder = vf_ladder(
        PERSONAS[spec.persona],
        spec.vdd_grid,
        ambient_c=cooling.ambient_c,
    )
    telemetry = (
        PowerTelemetry(spec.sensor_seed)
        if spec.sensor_seed is not None
        else None
    )
    governor = Governor(
        ladder,
        build_policy(spec, cooling),
        build_power_fn(spec),
        cooling,
        telemetry=telemetry,
        settle_s=spec.settle_s,
        disturbances_s=spec.disturbance_times(),
        event_fn=build_fan_event(spec, cooling),
        warm_start=spec.warm_start,
        checker=checker,
    )
    return governor.run(spec.duration_s)
