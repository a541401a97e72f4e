"""Unit tests for repro.board (instruments, protocol, test system) and
repro.silicon (personas, yield)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.board.monitor import MeasurementProtocol
from repro.board.psu import BenchSupply, OnBoardSupply
from repro.board.sense import CurrentSenseChannel, SenseResistor, VoltageMonitor
from repro.board.testboard import (
    ExperimentalSystem,
    PitonTestBoard,
    ThermalRunaway,
)
from repro.power.chip_power import ChipPowerModel, OperatingPoint, RailPower
from repro.silicon.variation import (
    CHIP1,
    CHIP2,
    CHIP3,
    PERSONAS,
    ChipPersona,
    sample_persona,
)
from repro.silicon.yield_model import (
    ChipStatus,
    PAPER_SHARES,
    YieldModel,
    YieldParameters,
)
from repro.thermal.cooling import STOCK_HEATSINK_FAN, no_heatsink_at_angle
from repro.util.events import EventLedger
from repro.util.rng import RngFactory
from repro.util.stats import Measurement


class TestPsu:
    def test_remote_sense_holds_setpoint(self):
        psu = BenchSupply("VDD", 1.0)
        assert psu.voltage_at_load(5.0) == pytest.approx(1.0)

    def test_no_remote_sense_droops(self):
        psu = BenchSupply("X", 1.0, remote_sense=False)
        assert psu.voltage_at_load(5.0) < 1.0

    def test_current_limit(self):
        with pytest.raises(OverflowError):
            BenchSupply("X", 1.0, max_current_a=1.0).voltage_at_load(2.0)

    def test_setpoint_resolution(self):
        psu = BenchSupply("X", 1.0, setpoint_resolution_v=0.01)
        psu.set_voltage(1.0042)
        assert psu.voltage_at_load(0.0) == pytest.approx(1.0)

    def test_onboard_coarser(self):
        ob = OnBoardSupply("onboard", 1.0)
        bench = BenchSupply("bench", 1.0)
        assert ob.setpoint_resolution_v > bench.setpoint_resolution_v

    def test_invalid_setpoint(self):
        with pytest.raises(ValueError):
            BenchSupply("X", 1.0).set_voltage(0)

    def test_negative_current(self):
        with pytest.raises(ValueError):
            BenchSupply("X", 1.0).voltage_at_load(-1.0)


class TestSense:
    def test_resistor_drop(self):
        assert SenseResistor(0.005).drop_v(2.0) == pytest.approx(0.01)

    def test_resistor_validation(self):
        with pytest.raises(ValueError):
            SenseResistor(0.0)

    def test_monitor_quantizes(self):
        mon = VoltageMonitor(
            np.random.default_rng(0), lsb_v=0.001, noise_sigma_v=0.0
        )
        assert mon.read(1.0004) == pytest.approx(1.0)

    def test_current_channel_accuracy(self):
        rng = np.random.default_rng(1)
        chan = CurrentSenseChannel(SenseResistor(), rng)
        readings = [chan.read_current_a(2.0, 1.0) for _ in range(200)]
        assert np.mean(readings) == pytest.approx(2.0, rel=0.01)


def per_sample_reference(rng, power_at, voltages, samples=128):
    """The bench loop the protocol vectorizes: per sample, per rail
    (vdd, vcs, vio), one voltage reading, then the shunt's high and
    low readings, each drawing its own noise."""
    rails = {
        rail: (
            VoltageMonitor(rng),
            CurrentSenseChannel(SenseResistor(ohms), rng),
        )
        for rail, ohms in (("vdd", 0.005), ("vcs", 0.005), ("vio", 0.010))
    }
    per_rail = {rail: [] for rail in rails}
    for k in range(samples):
        true = power_at(k / 17.0)
        true_w = {"vdd": true.vdd_w, "vcs": true.vcs_w, "vio": true.vio_w}
        for rail, (vmon, imon) in rails.items():
            volts = voltages[rail]
            v_meas = vmon.read(volts)
            i_meas = imon.read_current_a(true_w[rail] / volts, volts)
            per_rail[rail].append(v_meas * i_meas)
    return {
        rail: Measurement.from_samples(s) for rail, s in per_rail.items()
    }


class TestMeasurementProtocol:
    @pytest.mark.parametrize("seed", [0, 9, 13, 2024])
    def test_one_draw_equals_per_sample_reference(self, seed):
        """``measure_steady`` draws all noise at once; it must equal the
        per-sample loop bit for bit, draw for draw."""
        ledger = EventLedger()
        ledger.record("instr.int_add", 40_000, activity=0.3)
        ledger.record("core.active_cycle", 50_000)
        for persona in PERSONAS.values():
            model = ChipPowerModel(persona)
            protocol = MeasurementProtocol(np.random.default_rng(seed))
            ref_rng = np.random.default_rng(seed)
            for vdd in (0.8, 1.0, 1.2):
                voltages = {"vdd": vdd, "vcs": vdd + 0.05, "vio": 1.8}
                op = OperatingPoint(vdd, vdd + 0.05, freq_hz=400e6)
                for power in (
                    model.idle_power(op),
                    model.total_power(ledger, 50_000, op),
                ):
                    got = protocol.measure_steady(power, voltages)
                    want = per_sample_reference(
                        ref_rng, lambda _t: power, voltages
                    )
                    for rail in ("vdd", "vcs", "vio"):
                        assert getattr(got, rail) == want[rail], (
                            persona.name, vdd, rail,
                        )

    def test_time_varying_measure_equals_reference(self):
        def wobble(t: float) -> RailPower:
            return RailPower(2.0 + 0.2 * np.sin(t), 0.3 + 0.01 * t, 0.1)

        voltages = {"vdd": 1.0, "vcs": 1.05, "vio": 1.8}
        got = MeasurementProtocol(np.random.default_rng(4)).measure(
            wobble, voltages
        )
        want = per_sample_reference(
            np.random.default_rng(4), wobble, voltages
        )
        assert (got.vdd, got.vcs, got.vio) == (
            want["vdd"], want["vcs"], want["vio"],
        )

    def test_sample_count_and_noise(self):
        protocol = MeasurementProtocol(np.random.default_rng(2))
        power = RailPower(2.0, 0.3, 0.1)
        m = protocol.measure_steady(
            power, {"vdd": 1.0, "vcs": 1.05, "vio": 1.8}
        )
        assert m.vdd.value == pytest.approx(2.0, rel=0.01)
        assert m.vdd.sigma > 0  # instrument noise shows up
        assert m.total.value == pytest.approx(2.4, rel=0.01)

    def test_time_varying_power_widens_sigma(self):
        protocol = MeasurementProtocol(np.random.default_rng(3))
        steady = protocol.measure_steady(
            RailPower(2.0, 0.0001, 0.0001),
            {"vdd": 1.0, "vcs": 1.05, "vio": 1.8},
        )

        def wobble(t: float) -> RailPower:
            return RailPower(2.0 + 0.2 * np.sin(t), 0.0001, 0.0001)

        protocol2 = MeasurementProtocol(np.random.default_rng(3))
        wobbly = protocol2.measure(
            wobble, {"vdd": 1.0, "vcs": 1.05, "vio": 1.8}
        )
        assert wobbly.vdd.sigma > 5 * steady.vdd.sigma

    def test_validation(self):
        with pytest.raises(ValueError):
            MeasurementProtocol(np.random.default_rng(0), poll_hz=0)


class TestExperimentalSystem:
    def test_default_rails(self):
        board = PitonTestBoard()
        rails = board.rail_voltages()
        assert rails == {"vdd": 1.0, "vcs": 1.05, "vio": 1.8}

    def test_set_operating_point(self):
        system = ExperimentalSystem()
        system.set_operating_point(0.9, 0.95, 400e6)
        assert system.freq_hz == 400e6
        assert system.board.rail_voltages()["vdd"] == pytest.approx(0.9)

    def test_workload_power_above_idle(self):
        system = ExperimentalSystem(seed=5)
        ledger = EventLedger()
        ledger.record("instr.int_add", 10_000)
        ledger.record("core.active_cycle", 10_000)
        busy = system.measure_workload(ledger, 10_000).core.value
        idle = system.measure_idle().core.value
        assert busy > idle

    def test_workload_needs_window(self):
        system = ExperimentalSystem()
        with pytest.raises(ValueError):
            system.measure_workload(EventLedger(), None)

    def test_self_heating_visible(self):
        system = ExperimentalSystem()
        cold = system.settle_temperature()
        ledger = EventLedger()
        ledger.record("instr.int_add", 1_000_000)
        hot = system.settle_temperature(ledger, 10_000)
        assert hot > cold > system.cooling.ambient_c


def settle_reference(system, curve, activity):
    """The settle loop ``_settle`` runs on floats: one ``RailPower`` per
    damped step, the cooling's ``r_ja`` read at each. ``None`` when 100
    steps do not converge. A runaway can also converge, on the leakage
    clamp near 1e18 °C; every real settle stays below 200 °C."""
    temp = system.cooling.ambient_c
    for _ in range(100):
        power = ExperimentalSystem._true_power(curve, temp, activity).total_w
        new_temp = system.cooling.ambient_c + system.cooling.r_ja * power
        if abs(new_temp - temp) < 0.01:
            return new_temp
        temp += 0.5 * (new_temp - temp)
    return None


class TestSettle:
    def test_settle_equals_rail_power_reference(self):
        """Settled temperatures and the measurements taken at them equal
        the reference loop's bit for bit, idle and under load; points
        where it never converges, or converges on the clamp, raise."""
        ledger = EventLedger()
        ledger.record("instr.int_add", 40_000, activity=0.3)
        ledger.record("core.active_cycle", 50_000)
        settled = runaways = 0
        for persona, cooling, vdd, mhz, (work, window) in itertools.product(
            PERSONAS.values(),
            (STOCK_HEATSINK_FAN, no_heatsink_at_angle(30.0)),
            (0.7, 0.8, 0.9, 1.0, 1.1, 1.2),
            (100.0, 300.0, 500.0, 700.0, 900.0),
            ((None, None), (ledger, 50_000)),
        ):
            system = ExperimentalSystem(
                persona=persona, cooling=cooling, seed=3
            )
            system.set_operating_point(vdd, vdd + 0.05, mhz * 1e6)
            curve = system._idle_curve()
            activity = system._activity_power(work, window)
            want = settle_reference(system, curve, activity)
            point = (persona.name, cooling.name, vdd, mhz, window)
            if want is None or want > 1000.0:
                runaways += 1
                with pytest.raises(ThermalRunaway):
                    system.settle_temperature(work, window)
                continue
            settled += 1
            assert system.settle_temperature(work, window) == want, point
            expected = MeasurementProtocol(
                RngFactory(3).stream("monitor")
            ).measure_steady(
                ExperimentalSystem._true_power(curve, want, activity),
                system.board.rail_voltages(),
            )
            got = (
                system.measure_idle()
                if work is None
                else system.measure_workload(work, window)
            )
            assert got == expected, point
        assert settled > runaways > 0

    def test_runaway_raises_naming_the_point(self):
        system = ExperimentalSystem(persona=CHIP1)
        system.set_operating_point(1.2, 1.25, 900e6)
        with pytest.raises(
            ThermalRunaway, match="chip1 at VDD 1.2 V, VCS 1.25 V, 900 MHz"
        ):
            system.measure_idle()

    def test_static_runaway_raises_naming_the_point(self):
        """With no heatsink, chip1's static die at 1.2 V / 900 MHz runs
        away: its last step moves it by 0 C only because the leakage
        exponent sits on its clamp."""
        system = ExperimentalSystem(
            persona=CHIP1, cooling=no_heatsink_at_angle(30.0)
        )
        system.set_operating_point(1.2, 1.25, 900e6)
        with pytest.raises(
            ThermalRunaway, match="chip1 at VDD 1.2 V, VCS 1.25 V, 900 MHz"
        ):
            system.measure_static()

    def test_static_stock_point_still_measures(self):
        system = ExperimentalSystem(persona=CHIP1)
        system.set_operating_point(1.2, 1.25, 900e6)
        assert system.measure_static().total.value == pytest.approx(
            0.947, rel=1e-3
        )

    def test_slowest_settling_sweep_point_still_measures(self):
        """chip1 at 1.2 V / 850 MHz under ``int`` settles: in 53 steps
        idle and 87 loaded, the most of perfbench's sweep grids."""
        from repro.experiments.context import RunContext
        from repro.sweepspec import SweepSpec, run_sweepspec

        spec = SweepSpec(
            workload="int", personas=("chip1",), vdd=(1.2,),
            freq_mhz=(850.0,), quick=True,
        )
        (record,) = run_sweepspec(spec, RunContext(quick=True)).records
        assert record.idle_core_mw == pytest.approx(7464, rel=1e-3)
        assert record.active_core_mw == pytest.approx(696.2, rel=1e-3)

    def test_sweep_cli_exits_2_naming_the_point(self, tmp_path, capsys):
        from repro.cli import main

        code = main([
            "sweep", "int", "--persona", "chip1", "--quick",
            "--vdd-min", "1.2", "--vdd-max", "1.2", "--vdd-points", "1",
            "--freq-min", "900", "--freq-max", "900", "--freq-points", "1",
            "--checkpoint-dir", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: thermal runaway: chip1 at VDD 1.2 V, ")
        assert "VCS 1.25 V, 900 MHz" in err


class TestPersonas:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChipPersona("bad", speed=3.0)

    def test_paper_chip_relationships(self):
        assert CHIP1.leak > CHIP2.leak > CHIP3.leak
        assert CHIP1.speed > CHIP2.speed > CHIP3.speed

    def test_sampling_deterministic(self):
        a = sample_persona(np.random.default_rng(1), 0)
        b = sample_persona(np.random.default_rng(1), 0)
        assert a == b

    def test_speed_leak_correlation(self):
        rng = np.random.default_rng(7)
        personas = [sample_persona(rng, i) for i in range(400)]
        speeds = np.array([p.speed for p in personas])
        leaks = np.log([p.leak for p in personas])
        corr = np.corrcoef(speeds, leaks)[0, 1]
        assert corr > 0.5  # fast silicon leaks more


class TestYieldModel:
    def test_expected_shares_match_table4(self):
        expected = YieldParameters().expected_shares()
        for status, share in PAPER_SHARES.items():
            assert expected[status] == pytest.approx(share, abs=0.005), (
                status
            )

    def test_deterministic_per_die(self):
        model = YieldModel(rngs=RngFactory(3))
        assert model.test_die(5).status == model.test_die(5).status

    def test_lot_statistics_converge(self):
        model = YieldModel(rngs=RngFactory(11))
        summary = model.test_lot(4000)
        good = summary.percentage(ChipStatus.GOOD)
        assert good == pytest.approx(59.4, abs=3.0)

    def test_repairability_flags(self):
        assert ChipStatus.UNSTABLE_DETERMINISTIC.repairable
        assert not ChipStatus.BAD_VCS_SHORT.repairable

    def test_summary_counts(self):
        model = YieldModel(rngs=RngFactory(0))
        summary = model.test_lot(32)
        assert summary.tested == 32
        total = sum(summary.count(s) for s in ChipStatus)
        assert total == 32
