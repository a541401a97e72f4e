"""Unit tests for the repro.governor control subsystem.

Covers the ladder builder, each policy's decision rule in isolation
(hand-built ticks, no simulator), the GovernedTrace document contract,
the governor invariant checkers with their fault-injection coverage —
including the deliberately mis-tuned PI the check suite exists to
catch — and the single shared 17 Hz poll-rate constant.
"""

from __future__ import annotations

import inspect

import pytest

from repro.board import MONITOR_POLL_HZ
from repro.board.monitor import MeasurementProtocol
from repro.board.powerlog import PowerLogger
from repro.check import (
    CheckError,
    CheckSuite,
    GOVERNOR_FAULT_KINDS,
    inject_governor_fault,
)
from repro.silicon.variation import PERSONAS

from repro.governor import (
    DEFAULT_VDD_GRID,
    GOVERNED_TRACE_SCHEMA_VERSION,
    GovernedTrace,
    Governor,
    PaceToDeadlinePolicy,
    PIPowerCapPolicy,
    PolicyTick,
    RaceToIdlePolicy,
    ReactiveCapPolicy,
    ScenarioSpec,
    StaticPolicy,
    ThermalTripPolicy,
    run_scenario,
    vf_ladder,
)
from repro.governor.scenarios import COOLING_SETUPS, build_fan_event


# ------------------------------------------------------- shared poll rate
class TestPollRate:
    def test_constant_value(self):
        assert MONITOR_POLL_HZ == 17.0

    def test_three_sites_share_one_constant(self):
        """Monitor protocol, power logger, and governor must all
        default to the same shared constant — the 17 Hz literal lives
        in exactly one place (repro.board)."""
        sites = {
            "monitor": inspect.signature(
                MeasurementProtocol.__init__
            ).parameters["poll_hz"].default,
            "powerlog": inspect.signature(
                PowerLogger.__init__
            ).parameters["poll_hz"].default,
            "governor": inspect.signature(
                Governor.__init__
            ).parameters["poll_hz"].default,
        }
        assert sites == {name: MONITOR_POLL_HZ for name in sites}


# ----------------------------------------------------------------- ladder
class TestLadder:
    def test_chip2_ladder_shape(self):
        ladder = vf_ladder(PERSONAS["chip2"])
        assert len(ladder) == len(DEFAULT_VDD_GRID)
        assert [s.level for s in ladder] == list(range(len(ladder)))
        vdds = [s.vdd for s in ladder]
        freqs = [s.freq_hz for s in ladder]
        assert vdds == sorted(vdds)
        assert freqs == sorted(set(freqs))  # strictly ascending
        for step in ladder:
            assert step.vcs == pytest.approx(step.vdd + 0.05)

    def test_chip1_droop_point_dropped(self):
        """Chip #1's 1.2 V point clocks *lower* than 1.15 V (the
        paper's droop) — a dominated rung must not enter the ladder."""
        ladder = vf_ladder(PERSONAS["chip1"])
        assert len(ladder) < len(DEFAULT_VDD_GRID)
        assert max(s.vdd for s in ladder) < 1.20
        freqs = [s.freq_hz for s in ladder]
        assert freqs == sorted(set(freqs))

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            vf_ladder(PERSONAS["chip2"], vdd_grid=(1.0, 0.9))


def _tick(level, ladder_len=5, *, t_s=0.0, temp=50.0, measured=1.0,
          work=0.0, predict=None):
    ladder = vf_ladder(PERSONAS["chip2"], vdd_grid=DEFAULT_VDD_GRID[:ladder_len])
    return PolicyTick(
        k=int(t_s * MONITOR_POLL_HZ),
        t_s=t_s,
        dt_s=1.0 / MONITOR_POLL_HZ,
        die_temp_c=temp,
        measured_w=measured,
        level=level,
        ladder=ladder,
        work_done_cycles=work,
        predict_w=predict or (lambda lv: 1.0 + lv),
    )


# --------------------------------------------------------------- policies
class TestPolicies:
    def test_static_holds_level(self):
        pol = StaticPolicy()
        assert pol.start(5) == 4
        assert pol.decide(_tick(4)) == 4
        assert StaticPolicy(level=2).start(5) == 2
        with pytest.raises(ValueError):
            StaticPolicy(level=9).start(5)

    def test_thermal_trip_hysteresis(self):
        pol = ThermalTripPolicy(trip_c=88.0, clear_c=82.0, min_dwell_s=1.0)
        assert pol.start(5) == 4
        # Between clear and trip: hold.
        assert pol.decide(_tick(4, temp=85.0)) == 4
        # Over trip: one rung down.
        assert pol.decide(_tick(4, temp=90.0, t_s=0.0)) == 3
        # Still dwelling: hold even though still hot.
        assert pol.decide(_tick(3, temp=95.0, t_s=0.5)) == 3
        # Dwell expired: another rung.
        assert pol.decide(_tick(3, temp=95.0, t_s=1.0)) == 2
        # Cooled under clear (after dwell): one rung back up.
        assert pol.decide(_tick(2, temp=80.0, t_s=2.5)) == 3

    def test_thermal_trip_validates(self):
        with pytest.raises(ValueError):
            ThermalTripPolicy(trip_c=80.0, clear_c=85.0, min_dwell_s=1.0)
        with pytest.raises(ValueError):
            ThermalTripPolicy(trip_c=88.0, clear_c=82.0, min_dwell_s=-1.0)

    def test_reactive_cap_picks_highest_feasible(self):
        pol = ReactiveCapPolicy(cap_w=3.5)
        assert pol.start(5) == 0
        # predict_w = 1 + level, so levels 0..2 fit under 3.5 W.
        assert pol.decide(_tick(0)) == 2
        # Nothing but the bottom fits: fall to 0.
        tight = ReactiveCapPolicy(cap_w=0.5)
        assert tight.decide(_tick(4)) == 0

    def test_pi_protective_never_commits_over_budget(self):
        pol = PIPowerCapPolicy(cap_w=3.5, kp=0.0, ki=2000.0)
        pol.start(5)
        # Huge integral gain slams the command to the top; protection
        # walks it back to the highest rung the model prices in budget.
        level = pol.decide(_tick(0, measured=0.5))
        assert level == 2  # predict 1+level <= 3.5

    def test_pi_unprotected_exposes_mistuning(self):
        pol = PIPowerCapPolicy(
            cap_w=3.5, kp=0.0, ki=2000.0, protective=False
        )
        pol.start(5)
        assert pol.decide(_tick(0, measured=0.5)) == 4  # over budget

    def test_race_and_pace(self):
        race = RaceToIdlePolicy(work_cycles=1e9)
        assert race.decide(_tick(4, work=0.0)) == 4
        assert race.decide(_tick(4, work=1e9)) == 0

        pace = PaceToDeadlinePolicy(work_cycles=1e9, deadline_s=10.0)
        assert pace.start(5) == 0
        # Needs 1e9/10 = 100 MHz: the bottom rung (278 MHz) suffices.
        assert pace.decide(_tick(0, t_s=0.0)) == 0
        # Done: idle.
        assert pace.decide(_tick(0, t_s=5.0, work=1e9)) == 0
        # Past due with work left: flat out.
        assert pace.decide(_tick(0, t_s=9.99, work=0.0)) == 4


# ------------------------------------------------------------------ trace
SHORT_SPEC = ScenarioSpec(
    name="unit",
    policy="reactive_cap",
    persona="chip2",
    duration_s=20.0,
    phases=((0.0, 1.2),),
    cap_w=3.5,
    settle_s=2.0,
)


@pytest.fixture(scope="module")
def short_trace() -> GovernedTrace:
    return run_scenario(SHORT_SPEC)


class TestGovernedTrace:
    def test_document_round_trip(self, short_trace):
        doc = short_trace.to_dict()
        assert doc["schema_version"] == GOVERNED_TRACE_SCHEMA_VERSION
        clone = GovernedTrace.from_dict(doc)
        assert clone.to_dict() == doc
        assert clone.samples == short_trace.samples

    def test_tick_grid_and_counters(self, short_trace):
        assert short_trace.gov_samples == int(20.0 * MONITOR_POLL_HZ)
        assert short_trace.samples[0].t_s == 0.0
        assert short_trace.poll_hz == MONITOR_POLL_HZ
        assert short_trace.cap_violations() == 0

    def test_settle_window(self, short_trace):
        assert short_trace.in_settle_window(0.5)
        assert not short_trace.in_settle_window(10.0)


# ------------------------------------------------------------- fan events
def test_fan_events_must_be_able_to_happen():
    fan = dict(name="fan", policy="static", cooling="camera")
    for bad in (
        dict(fan_recover_s=50.0),  # recovery without a failure
        dict(fan_fail_s=100.0, fan_recover_s=50.0),  # would never fail
        dict(fan_fail_s=100.0, fan_recover_s=100.0),
        dict(fan_fail_s=100.0, fan_r_factor=0.0),
        dict(fan_fail_s=100.0, fan_recover_s=200.0, fan_r_factor=-2.0),
        dict(fan_r_factor=0.0),
    ):
        with pytest.raises(ValueError):
            ScenarioSpec(**fan, **bad)

    spec = ScenarioSpec(
        **fan, fan_fail_s=100.0, fan_recover_s=200.0, fan_r_factor=2.5
    )
    assert spec.disturbance_times() == (100.0, 200.0)
    cooling = COOLING_SETUPS[spec.cooling]
    base_r = cooling.stages[-1].r_c_per_w
    network = cooling.network()
    event = build_fan_event(spec, cooling)
    for t_s, want_r in (
        (0.0, base_r),
        (99.9, base_r),
        (100.0, base_r * 2.5),
        (150.0, base_r * 2.5),
        (200.0, base_r),
        (300.0, base_r),
    ):
        event(t_s, network)
        assert network.stages[-1].r_c_per_w == want_r, t_s


# ------------------------------------------------- checker + fault coverage
EXPECTED_CHECKER = {
    "gov_cap_breach": "gov_cap",
    "gov_offtick_sample": "gov_tick",
    "gov_chatter": "gov_dwell",
    "gov_energy_leak": "gov_energy",
}


class TestGovernorChecks:
    def test_clean_trace_passes(self, short_trace):
        suite = CheckSuite()
        suite.check_governor(short_trace)
        assert suite.violations == 0
        assert suite.counts["governor"] == 1

    def test_fault_kinds_table_is_exhaustive(self):
        assert set(GOVERNOR_FAULT_KINDS) == set(EXPECTED_CHECKER)

    @pytest.mark.parametrize("kind", GOVERNOR_FAULT_KINDS)
    def test_each_fault_caught_by_intended_checker(self, kind):
        # Chatter needs a dwell-guaranteeing policy to corrupt.
        spec = (
            SHORT_SPEC
            if kind != "gov_chatter"
            else ScenarioSpec(
                name="unit",
                policy="thermal_trip",
                persona="chip1",
                duration_s=60.0,
                phases=((0.0, 2.4),),
                trip_c=70.0,
                clear_c=60.0,
                warm_start=True,
            )
        )
        trace = run_scenario(spec)
        report = inject_governor_fault(kind, trace, seed=7)
        assert report.kind == kind
        with pytest.raises(CheckError) as err:
            CheckSuite().check_governor(trace)
        assert err.value.checker == EXPECTED_CHECKER[kind]

    def test_mistuned_pi_is_caught_live(self):
        """A classic over-gained integrator (protection off) limit
        cycles across the whole ladder and breaches the cap; the
        governor's own end-of-run audit must refuse the trace."""
        spec = ScenarioSpec(
            name="mistuned",
            policy="pi_cap",
            persona="chip2",
            duration_s=60.0,
            phases=((0.0, 0.9), (45.0, 2.2)),
            cap_w=3.5,
            kp=0.0,
            ki=2000.0,
            protective=False,
            sensor_seed=2018,
            settle_s=10.0,
        )
        with pytest.raises(CheckError) as err:
            run_scenario(spec, checker=CheckSuite())
        assert err.value.checker == "gov_cap"

        trace = run_scenario(spec)
        assert trace.cap_violations() > 0


# --------------------------------------------------------------- registry
class TestRegistration:
    def test_ctl_experiments_registered(self):
        from repro.experiments import EXPERIMENTS

        ctl = {
            "ctl_thermal",
            "ctl_powercap",
            "ctl_race_vs_pace",
            "ctl_fan_failure",
        }
        assert ctl <= set(EXPERIMENTS)
        for eid in ctl:
            assert EXPERIMENTS[eid].supports_jobs

    def test_ctl_goldens_committed(self):
        from repro.check import golden_path

        for eid in (
            "ctl_thermal",
            "ctl_powercap",
            "ctl_race_vs_pace",
            "ctl_fan_failure",
        ):
            assert golden_path(eid).exists(), eid
