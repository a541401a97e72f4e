"""Property-based tests: power-model algebra and methodology
invariants."""

from __future__ import annotations

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.power.calibration import EVENT_ENERGIES
from repro.power.chip_power import ChipPowerModel, OperatingPoint
from repro.power.epi import energy_per_instruction
from repro.power.technology import fmax_hz, leakage_scale
from repro.util.events import EventLedger
from repro.util.stats import Measurement

MODEL = ChipPowerModel()
EVENT_NAMES = sorted(EVENT_ENERGIES)

event_entries = st.lists(
    st.tuples(
        st.sampled_from(EVENT_NAMES),
        st.integers(1, 10_000),
        st.floats(0.0, 1.0),
    ),
    min_size=0,
    max_size=12,
)


@given(event_entries, st.floats(100.0, 1e6))
@settings(max_examples=80, deadline=None)
def test_event_power_nonnegative_and_finite(entries, window):
    ledger = EventLedger()
    for name, count, activity in entries:
        ledger.record(name, count, activity=activity)
    power = MODEL.event_power(ledger, window, OperatingPoint())
    for value in (power.vdd_w, power.vcs_w, power.vio_w):
        assert value >= 0.0
        assert value < 1e6


@given(event_entries)
@settings(max_examples=50, deadline=None)
def test_event_power_scales_inversely_with_window(entries):
    assume(entries)
    ledger = EventLedger()
    for name, count, activity in entries:
        ledger.record(name, count, activity=activity)
    op = OperatingPoint()
    p1 = MODEL.event_power(ledger, 1_000, op).total_w
    p2 = MODEL.event_power(ledger, 2_000, op).total_w
    assert p1 == 2 * p2 or abs(p1 - 2 * p2) < 1e-12


@given(event_entries, st.floats(1.2, 3.0))
@settings(max_examples=50, deadline=None)
def test_scaling_ledger_scales_energy(entries, factor):
    ledger = EventLedger()
    for name, count, activity in entries:
        ledger.record(name, count, activity=activity)
    op = OperatingPoint()
    base = MODEL.event_power(ledger, 1_000, op).total_w
    scaled = MODEL.event_power(ledger.scaled(factor), 1_000, op).total_w
    assert scaled >= base
    assert abs(scaled - factor * base) < 1e-9 * max(1.0, base)


#: Voltage gap above which leakage must grow strictly. Closer pairs
#: can price to the same double (at 0 C, 0.6 V and the next float up
#: do), so below it leakage need only not fall.
STRICT_LEAKAGE_GAP_V = 1e-9


@given(
    st.floats(0.6, 1.3),
    st.floats(0.6, 1.3),
    st.floats(-20.0, 120.0),
)
@example(0.6, math.nextafter(0.6, 1.0), 0.0)
@settings(max_examples=100)
def test_leakage_monotone_in_voltage_and_temperature(v1, v2, temp):
    assume(v1 < v2)
    assert leakage_scale(v1, temp) <= leakage_scale(v2, temp)
    if v2 - v1 > STRICT_LEAKAGE_GAP_V:
        assert leakage_scale(v1, temp) < leakage_scale(v2, temp)
    assert leakage_scale(v1, temp) < leakage_scale(v1, temp + 10)


@given(st.floats(0.55, 1.4), st.floats(0.55, 1.4))
@settings(max_examples=100)
def test_fmax_monotone(v1, v2):
    assume(v1 < v2)
    assert fmax_hz(v1) <= fmax_hz(v2)


@given(
    st.floats(0.0, 10.0),
    st.floats(0.0, 5.0),
    st.integers(1, 500),
    st.integers(1, 25),
)
@settings(max_examples=100)
def test_epi_equation_scaling(delta_w, sigma, latency, cores):
    """EPI is linear in the power delta and the latency, inverse in
    core count — direct consequences of the paper's equation."""
    p_idle = Measurement(2.0, sigma)
    p_inst = Measurement(2.0 + delta_w, sigma)
    epi = energy_per_instruction(p_inst, p_idle, 500e6, latency, cores)
    doubled_latency = energy_per_instruction(
        p_inst, p_idle, 500e6, 2 * latency, cores
    )
    assert abs(doubled_latency.value - 2 * epi.value) < 1e-18
    if cores > 1:
        fewer = energy_per_instruction(
            p_inst, p_idle, 500e6, latency, cores - 1
        )
        assert fewer.value >= epi.value


@given(st.floats(0.7, 1.2), st.floats(1e8, 8e8), st.floats(20.0, 100.0))
@settings(max_examples=60)
def test_idle_power_decomposition(vdd, freq, temp):
    """idle == static + clock, and both pieces are positive."""
    op = OperatingPoint(vdd=vdd, vcs=vdd + 0.05, freq_hz=freq, temp_c=temp)
    static = MODEL.static_power(op)
    idle = MODEL.idle_power(op)
    assert idle.vdd_w > static.vdd_w
    assert idle.vcs_w > static.vcs_w
    assert static.vdd_w > 0 and static.vcs_w > 0
