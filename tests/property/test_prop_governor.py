"""Property-based tests for the repro.governor control loop.

Three promises the subsystem makes, each stated over randomized
scenarios rather than the four curated experiment configurations:

* **Cap soundness** — whatever the workload phases, sensor seed, and
  budget (within the regime where the bottom rung fits), a capping
  policy never lets applied power exceed the cap outside the declared
  settle windows, and ``check_governor`` agrees.
* **No chatter** — the hysteretic thermal policy never places two
  actuations closer than its dwell floor (one die thermal time
  constant in the scenarios), however trip/clear/activity are drawn.
* **Determinism** — a scenario is a pure function of its spec: re-runs
  are bit-identical, and fanning arms across worker processes
  (``--jobs 2``) reproduces the serial traces exactly.
* **Lockstep** — ``run_scenario`` equals, sample for sample and bit for
  bit, a plain per-tick reference of the loop kept below: a fresh tick
  per sample, a linear phase walk, the idle curve's rails, scalar
  monitor draws and an RC step that derives everything per call. The
  policy sees the same ticks, down to the plant's price of every rung.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.board.sense import (
    CurrentSenseChannel,
    SenseResistor,
    VoltageMonitor,
)
from repro.check import CheckSuite
from repro.experiments.context import RunContext
from repro.experiments.ctl_common import run_specs
from repro.governor import (
    POLICY_NAMES,
    GovernorPolicy,
    PolicyTick,
    ScenarioSpec,
    run_scenario,
    vf_ladder,
)
from repro.governor import scenarios
from repro.governor.scenarios import (
    COOLING_SETUPS,
    NOMINAL_HZ,
    T_MODEL_MAX_C,
    build_fan_event,
    build_policy,
)
from repro.power.calibration import DEFAULT_CALIBRATION
from repro.power.chip_power import ChipPowerModel, OperatingPoint
from repro.silicon.variation import PERSONAS

personas = st.sampled_from(["chip1", "chip2", "chip3"])
#: Budgets that keep the bottom rung (0.80 V, lightest clock) feasible
#: for the activity range below — outside that regime no ladder
#: governor can honour the cap and the checker rightly refuses.
caps_w = st.floats(3.0, 6.0)
activities_w = st.floats(0.3, 2.5)
seeds = st.integers(0, 2**16)


# ---------------------------------------------------------- cap soundness
@given(
    policy=st.sampled_from(["reactive_cap", "pi_cap"]),
    persona=personas,
    cap_w=caps_w,
    light_w=activities_w,
    heavy_w=activities_w,
    jump_s=st.floats(8.0, 20.0),
    seed=seeds,
)
@settings(max_examples=30)
def test_cap_never_exceeded_after_settle(
    policy, persona, cap_w, light_w, heavy_w, jump_s, seed
):
    spec = ScenarioSpec(
        name="prop",
        policy=policy,
        persona=persona,
        duration_s=30.0,
        phases=((0.0, light_w), (jump_s, heavy_w)),
        cap_w=cap_w,
        sensor_seed=seed,
        settle_s=4.0,
    )
    trace = run_scenario(spec)
    assert trace.cap_w == cap_w
    assert trace.cap_violations() == 0
    suite = CheckSuite()
    suite.check_governor(trace)  # must not raise
    assert suite.counts["governor"] == 1


# ------------------------------------------------------------- no chatter
@given(
    trip_c=st.floats(60.0, 95.0),
    drop_c=st.floats(5.0, 15.0),
    activity_w=st.floats(1.0, 2.8),
    persona=personas,
)
@settings(max_examples=30)
def test_trip_clear_never_chatters(trip_c, drop_c, activity_w, persona):
    """Consecutive actuations stay at least one dwell apart — the
    scenario default pins the dwell to the die stage's thermal time
    constant, so the loop cannot toggle faster than the physics it
    reacts to."""
    spec = ScenarioSpec(
        name="prop",
        policy="thermal_trip",
        persona=persona,
        duration_s=40.0,
        phases=((0.0, activity_w),),
        trip_c=trip_c,
        clear_c=trip_c - drop_c,
        warm_start=True,  # start hot at the top rung: maximal stress
    )
    trace = run_scenario(spec)
    assert trace.min_dwell_s > 0.0
    times = trace.actuation_times()
    for earlier, later in zip(times, times[1:]):
        assert later - earlier >= trace.min_dwell_s - 1e-9
    CheckSuite().check_governor(trace)  # gov_dwell must agree


# ----------------------------------------------------------- determinism
@given(
    policy=st.sampled_from(["static", "reactive_cap", "thermal_trip"]),
    persona=personas,
    activity_w=activities_w,
    seed=seeds,
)
@settings(max_examples=15)
def test_rerun_is_bit_identical(policy, persona, activity_w, seed):
    spec = ScenarioSpec(
        name="prop",
        policy=policy,
        persona=persona,
        duration_s=15.0,
        phases=((0.0, activity_w),),
        cap_w=4.0 if policy == "reactive_cap" else None,
        trip_c=80.0 if policy == "thermal_trip" else 88.0,
        clear_c=70.0 if policy == "thermal_trip" else 82.0,
        sensor_seed=seed,
    )
    first = run_scenario(spec).to_dict()
    second = run_scenario(spec).to_dict()
    assert first == second


def test_serial_vs_two_workers_bit_identical():
    """The ctl experiments fan their arms across processes; the traces
    coming back must match a serial run bit for bit (seeded telemetry,
    division-derived timestamps, pure-function caches only)."""
    specs = [
        ScenarioSpec(
            name=name,
            policy=policy,
            persona="chip2",
            duration_s=20.0,
            phases=((0.0, 0.9), (10.0, 2.2)),
            cap_w=3.5,
            sensor_seed=2018,
            settle_s=4.0,
        )
        for name, policy in (
            ("reactive", "reactive_cap"),
            ("pi", "pi_cap"),
        )
    ]
    serial = [run_scenario(s).to_dict() for s in specs]
    fanned = [
        t.to_dict() for t in run_specs(RunContext(jobs=2), specs)
    ]
    assert serial == fanned


# -------------------------------------------------------------- lockstep
def reference_power_fn(spec: ScenarioSpec):
    """The plant priced the plain way: the phase by a linear walk, the
    idle watts through the curve's rails, every factor per call."""
    model = ChipPowerModel(PERSONAS[spec.persona], DEFAULT_CALIBRATION)
    curves = {}

    def activity_w(t_s):
        current = spec.phases[0][1]
        for start, watts in spec.phases:
            if t_s >= start:
                current = watts
            else:
                break
        return current

    def power_w(step, die_temp_c, t_s):
        if step.level not in curves:
            curves[step.level] = model.idle_curve(OperatingPoint(
                vdd=step.vdd, vcs=step.vcs, freq_hz=step.freq_hz
            ))
        idle = curves[step.level].rails(min(die_temp_c, T_MODEL_MAX_C))
        return idle.total_w + (
            activity_w(t_s) * (step.freq_hz / NOMINAL_HZ)
        ) * (step.vdd / DEFAULT_CALIBRATION.vdd_nom) ** 2

    return power_w


class ReferenceTelemetry:
    """The board's monitors read one scalar noise draw at a time."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.vmon = VoltageMonitor(rng)
        self.imon = CurrentSenseChannel(SenseResistor(), rng)

    def read_power_w(self, true_power_w, rail_v):
        true_current = true_power_w / rail_v
        v_meas = self.vmon.read(rail_v)
        return v_meas * self.imon.read_current_a(true_current, rail_v)


class ReferenceNetwork:
    """The RC ladder stepped from its stages, every call: substep count
    from the nodes' effective time constants, flows from the
    temperatures before each substep."""

    def __init__(self, cooling):
        self.r = [stage.r_c_per_w for stage in cooling.stages]
        self.c = [stage.c_j_per_c for stage in cooling.stages]
        self.ambient_c = cooling.ambient_c
        self.temps = [self.ambient_c] * len(self.r)

    def set_stage_resistance(self, index, r_c_per_w):
        self.r[index] = r_c_per_w

    def settle(self, power_w):
        temp, temps = self.ambient_c, []
        for r in reversed(self.r):
            temp = temp + power_w * r
            temps.append(temp)
        self.temps = temps[::-1]

    def step(self, power_w, dt_s):
        taus = [
            c / (1.0 / r if i == 0 else 1.0 / r + 1.0 / self.r[i - 1])
            for i, (r, c) in enumerate(zip(self.r, self.c))
        ]
        substeps = max(1, int(dt_s / (0.1 * min(taus))) + 1)
        h = dt_s / substeps
        temps = self.temps
        n = len(temps)
        for _ in range(substeps):
            flows = [
                (temps[i] - (temps[i + 1] if i + 1 < n else self.ambient_c))
                / self.r[i]
                for i in range(n)
            ]
            temps = [
                temps[i]
                + h * ((power_w if i == 0 else flows[i - 1]) - flows[i])
                / self.c[i]
                for i in range(n)
            ]
        self.temps = temps


class TickLog(GovernorPolicy):
    """Wraps a policy and logs each tick it is shown, with the plant's
    price of every rung at that tick."""

    def __init__(self, policy: GovernorPolicy):
        self.policy = policy
        self.cap_w = policy.cap_w
        self.min_dwell_s = policy.min_dwell_s
        self.ticks = []

    def start(self, n_levels):
        return self.policy.start(n_levels)

    def decide(self, tick):
        self.ticks.append((
            tick.k, tick.t_s, tick.dt_s, tick.die_temp_c, tick.measured_w,
            tick.level, tick.work_done_cycles, tick.n_levels,
            tuple(tick.predict_w(lv) for lv in range(tick.n_levels)),
        ))
        return self.policy.decide(tick)


def reference_run(spec: ScenarioSpec, make_policy=build_policy):
    """One governed run, tick by tick: (samples, energy_j, work_cycles)
    with each sample a tuple in :class:`GovernorSample` field order."""
    cooling = COOLING_SETUPS[spec.cooling]
    try:
        ladder = vf_ladder(
            PERSONAS[spec.persona], spec.vdd_grid, ambient_c=cooling.ambient_c
        )
    except ValueError:
        assume(False)  # no bootable rung on this grid
    policy = make_policy(spec, cooling)
    power_fn = reference_power_fn(spec)
    telemetry = (
        None if spec.sensor_seed is None
        else ReferenceTelemetry(spec.sensor_seed)
    )
    event_fn = build_fan_event(spec, cooling)
    network = ReferenceNetwork(cooling)
    n = len(ladder)
    level = min(max(policy.start(n), 0), n - 1)
    if spec.warm_start:
        temp = network.ambient_c
        for _ in range(60):
            power = power_fn(ladder[level], temp, 0.0)
            new_temp = network.ambient_c + power * sum(network.r)
            if abs(new_temp - temp) < 0.01:
                break
            temp = new_temp
        network.settle(power)
    poll_hz = 17.0
    dt = 1.0 / poll_hz
    samples = []
    energy_j = work_cycles = 0.0
    for k in range(int(round(spec.duration_s * poll_hz))):
        t = k / poll_hz
        if event_fn is not None:
            event_fn(t, network)
        temp = network.temps[0]
        true_now = power_fn(ladder[level], temp, t)
        measured = (
            true_now if telemetry is None
            else telemetry.read_power_w(true_now, ladder[level].vdd)
        )
        tick = PolicyTick(
            k=k, t_s=t, dt_s=dt, die_temp_c=temp, measured_w=measured,
            level=level, ladder=ladder, work_done_cycles=work_cycles,
            predict_w=lambda lv, _temp=temp, _t=t: power_fn(
                ladder[lv], _temp, _t
            ),
        )
        new_level = min(max(policy.decide(tick), 0), n - 1)
        actuated = new_level != level
        level = new_level
        step = ladder[level]
        power = power_fn(step, temp, t)
        network.step(power, dt)
        energy_j += power * dt
        work_cycles += step.freq_hz * dt
        samples.append((
            t, level, step.vdd, step.freq_hz, power, measured,
            network.temps[0], actuated,
        ))
    return samples, energy_j, work_cycles


@st.composite
def lockstep_specs(draw):
    policy = draw(st.sampled_from(POLICY_NAMES))
    duration = draw(st.floats(1.0, 25.0))
    jumps = draw(st.lists(
        st.floats(0.1, duration), max_size=3, unique=True
    ))
    watts = st.floats(0.0, 2.6)
    phases = ((0.0, draw(watts)),) + tuple(
        (start, draw(watts)) for start in sorted(jumps)
    )
    fan_fail = draw(st.none() | st.floats(0.0, duration))
    fan_recover = None
    if fan_fail is not None and draw(st.booleans()):
        fan_recover = fan_fail + draw(st.floats(0.1, duration))
    trip_c = draw(st.floats(45.0, 95.0))
    return ScenarioSpec(
        name="lockstep",
        policy=policy,
        persona=draw(personas),
        cooling=draw(st.sampled_from(sorted(COOLING_SETUPS))),
        vdd_grid=tuple(sorted(draw(st.lists(
            st.sampled_from([round(0.65 + 0.05 * i, 2) for i in range(12)]),
            min_size=1, max_size=6, unique=True,
        )))),
        duration_s=duration,
        warm_start=draw(st.booleans()),
        phases=phases,
        cap_w=draw(st.floats(1.5, 7.0)),
        protective=draw(st.booleans()),
        trip_c=trip_c,
        clear_c=trip_c - draw(st.floats(1.0, 15.0)),
        work_gcycles=draw(st.floats(0.5, 12.0)),
        deadline_s=draw(st.floats(0.5, 30.0)),
        fan_fail_s=fan_fail,
        fan_recover_s=fan_recover,
        fan_r_factor=draw(st.floats(1.2, 4.0)),
        sensor_seed=draw(st.none() | seeds),
    )


@given(spec=lockstep_specs())
def test_governed_run_matches_reference_loop(spec):
    """Every tick the policy sees, every sample field, the energy
    ledger and the work integral equal the per-tick reference's
    exactly (``==`` on floats)."""
    logs = []

    def logged_policy(spec, cooling):
        logs.append(TickLog(build_policy(spec, cooling)))
        return logs[-1]

    expected, energy_j, work_cycles = reference_run(spec, logged_policy)
    with mock.patch.object(scenarios, "build_policy", logged_policy):
        trace = run_scenario(spec)
    reference_log, log = logs
    assert log.ticks == reference_log.ticks
    assert [tuple(s) for s in trace.samples] == expected
    assert trace.energy_j == energy_j
    assert trace.work_cycles == work_cycles
