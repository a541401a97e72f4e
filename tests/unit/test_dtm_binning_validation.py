"""Unit tests for DTM governors, speed binning, and the paper-anchor
report."""

from __future__ import annotations

import pytest

from repro.check.anchors import AnchorCheck, render_report
from repro.silicon.binning import (
    DEFAULT_BINS,
    BinningReport,
    SpeedBin,
    SpeedBinner,
)
from repro.thermal.cooling import STOCK_HEATSINK_FAN
from repro.thermal.dtm import PowerCapGovernor, ThermalThrottleGovernor
from repro.util.rng import RngFactory


def flat_power(watts: float):
    def model(freq_hz: float, temp_c: float) -> float:
        del temp_c
        return watts * freq_hz / 500e6

    return model


class TestThermalThrottleGovernor:
    def test_ladder_validation(self):
        with pytest.raises(ValueError):
            ThermalThrottleGovernor([])
        with pytest.raises(ValueError):
            ThermalThrottleGovernor([2e8, 1e8])
        with pytest.raises(ValueError):
            ThermalThrottleGovernor([1e8], trip_c=80, clear_c=85)

    def test_no_throttle_under_light_load(self):
        governor = ThermalThrottleGovernor([2e8, 5e8], trip_c=85)
        trace = governor.run(
            flat_power(1.0), STOCK_HEATSINK_FAN, duration_s=60.0
        )
        assert trace.throttled_fraction() == 0.0
        assert trace.mean_freq_hz() == 5e8

    def test_throttles_when_hot(self):
        governor = ThermalThrottleGovernor(
            [1e8, 5e8], trip_c=60.0, clear_c=50.0
        )
        trace = governor.run(
            flat_power(8.0), STOCK_HEATSINK_FAN, duration_s=400.0
        )
        assert trace.throttled_fraction() > 0.1
        # Hysteresis keeps the peak near the trip point.
        assert trace.peak_temp_c() < 75.0

    def test_work_done_integrates_frequency(self):
        governor = ThermalThrottleGovernor([5e8], trip_c=1e3, clear_c=999)
        trace = governor.run(
            flat_power(1.0), STOCK_HEATSINK_FAN, duration_s=10.0, dt_s=1.0
        )
        assert trace.work_done() == pytest.approx(5e8 * 9.0, rel=0.01)


class TestPowerCapGovernor:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerCapGovernor([], cap_w=1.0)
        with pytest.raises(ValueError):
            PowerCapGovernor([1e8], cap_w=0.0)

    def test_respects_cap(self):
        governor = PowerCapGovernor([1e8, 3e8, 5e8], cap_w=2.0)
        trace = governor.run(
            flat_power(3.0), STOCK_HEATSINK_FAN, duration_s=30.0
        )
        # After settling, power stays at or under the cap.
        steady = trace.samples[10:]
        assert all(s.power_w <= 2.0 + 1e-9 for s in steady)

    def test_unconstrained_runs_full_speed(self):
        governor = PowerCapGovernor([1e8, 5e8], cap_w=100.0)
        trace = governor.run(
            flat_power(2.0), STOCK_HEATSINK_FAN, duration_s=10.0
        )
        assert trace.mean_freq_hz() == pytest.approx(5e8, rel=0.01)


class TestSpeedBinning:
    def test_bins_ordered_validation(self):
        with pytest.raises(ValueError):
            SpeedBinner(bins=(SpeedBin("a", 400), SpeedBin("b", 500)))
        with pytest.raises(ValueError):
            SpeedBinner(bins=(SpeedBin("a", 500), SpeedBin("b", 500)))

    def test_lot_deterministic(self):
        a = SpeedBinner(rngs=RngFactory(5)).bin_lot(20)
        b = SpeedBinner(rngs=RngFactory(5)).bin_lot(20)
        assert [d.bin_name for d in a.dies] == [
            d.bin_name for d in b.dies
        ]

    def test_every_die_assigned_consistently(self):
        report = SpeedBinner(rngs=RngFactory(1)).bin_lot(60)
        for die in report.dies:
            if die.bin_name is not None:
                threshold = next(
                    b.min_mhz
                    for b in DEFAULT_BINS
                    if b.name == die.bin_name
                )
                assert die.fmax_mhz >= threshold
            else:
                assert die.fmax_mhz < DEFAULT_BINS[-1].min_mhz

    def test_shares_sum_to_one(self):
        report = SpeedBinner(rngs=RngFactory(2)).bin_lot(50)
        names = [b.name for b in DEFAULT_BINS] + [None]
        assert sum(report.share(n) for n in names) == pytest.approx(1.0)

    def test_faster_voltage_bins_higher(self):
        low = SpeedBinner(ship_vdd=0.9, rngs=RngFactory(3)).bin_lot(30)
        high = SpeedBinner(ship_vdd=1.05, rngs=RngFactory(3)).bin_lot(30)
        top = DEFAULT_BINS[0].name
        assert high.count(top) >= low.count(top)

    def test_lot_size_validation(self):
        with pytest.raises(ValueError):
            SpeedBinner().bin_lot(0)

    def test_report_helpers(self):
        report = BinningReport()
        assert report.share("bin-500") == 0.0
        assert report.thermally_limited_count() == 0


class TestValidationReport:
    def test_anchor_check_math(self):
        check = AnchorCheck("x", 100.0, 103.0, "mW", tolerance=0.05)
        assert check.deviation == pytest.approx(0.03)
        assert check.within_tolerance
        bad = AnchorCheck("y", 100.0, 120.0, "mW", tolerance=0.05)
        assert not bad.within_tolerance

    def test_render_report(self):
        checks = [
            AnchorCheck("a", 1.0, 1.01, "W", 0.05),
            AnchorCheck("b", 2.0, 3.0, "W", 0.05),
        ]
        text = render_report(checks)
        assert "1/2 within" in text
        assert "OUT OF TOLERANCE" in text
