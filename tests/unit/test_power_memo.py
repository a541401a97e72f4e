"""Memoized power-model hot spots are bit-identical to recomputation.

The V/f boot-point solve is a pure function of hashable inputs, so
``functools.lru_cache`` may serve it from cache only if the cached
value equals a fresh solve *bitwise* — any drift would silently corrupt
every sweep. These tests compare the cache against the direct solve
and prove it engages. ``leakage_scale`` is not memoized (the simulator
prices static power through the folded idle curve); its tests check
that it tells calibrations apart and that the static relation built on
it is repeatable.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.power.calibration import DEFAULT_CALIBRATION
from repro.power.technology import leakage_scale, static_power_w
from repro.power.vf_curve import VfCurve, _cached_boot_point
from repro.silicon.variation import CHIP1, CHIP2, TYPICAL

VDD_GRID = [0.75, 0.85, 0.9, 1.0, 1.05, 1.1, 1.2]


class TestLeakageScaleMemo:
    def test_distinct_calibrations_get_distinct_entries(self):
        hot = replace(
            DEFAULT_CALIBRATION,
            leak_per_volt=DEFAULT_CALIBRATION.leak_per_volt * 1.5,
        )
        # Off-nominal VDD so the perturbed coefficient actually bites
        # (at vdd_nom the voltage term is zero for any coefficient).
        a = leakage_scale(1.1, 60.0, DEFAULT_CALIBRATION)
        b = leakage_scale(1.1, 60.0, hot)
        assert a != b
        assert b == math.exp(
            hot.leak_per_volt * (1.1 - hot.vdd_nom)
            + hot.leak_per_degc * (60.0 - hot.t_ref_c)
        )

    def test_static_power_unchanged_through_cache(self):
        # static_power_w is a pure function: repeated calls agree
        # exactly.
        for vdd in VDD_GRID:
            got = static_power_w(vdd, vdd + 0.05, 45.0)
            again = static_power_w(vdd, vdd + 0.05, 45.0)
            assert got == again
            assert got[0] > 0 and got[1] > 0


class TestBootFrequencyMemo:
    def test_bit_identical_to_direct_solve(self):
        for persona in (TYPICAL, CHIP1, CHIP2):
            for vdd in VDD_GRID:
                cached = VfCurve(persona).boot_frequency(vdd)
                fresh = VfCurve(persona)._solve_boot_frequency(vdd)
                assert cached == fresh  # frozen VfPoint, field-exact

    def test_cache_shared_across_curve_instances(self):
        # Sweep runners build a fresh VfCurve per grid point; the
        # solve must still be paid once per (persona, calib, vdd).
        _cached_boot_point.cache_clear()
        for _ in range(4):
            VfCurve(CHIP2).boot_frequency(1.0)
        info = _cached_boot_point.cache_info()
        assert info.misses == 1
        assert info.hits == 3

    def test_distinct_personas_do_not_collide(self):
        fast = VfCurve(CHIP1).boot_frequency(1.0)
        slow = VfCurve(CHIP2).boot_frequency(1.0)
        assert fast.fmax_hz != slow.fmax_hz

    def test_distinct_ambient_does_not_collide(self):
        cold = VfCurve(CHIP1, ambient_c=25.0).boot_frequency(1.2)
        hot = VfCurve(CHIP1, ambient_c=60.0).boot_frequency(1.2)
        # Chip #1 is thermally limited at 1.2V; ambient moves the
        # achievable clock, so a shared cache line would be a bug.
        assert cold.fmax_hz != hot.fmax_hz
