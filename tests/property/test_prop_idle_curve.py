"""Property tests: the folded idle curve prices exactly what the device
relations do.

``ChipPowerModel`` prices static and idle power through
:class:`~repro.power.chip_power.IdleCurve`, which folds every factor
that does not depend on die temperature once per operating point. The
reference below is the unfolded pricing: ``technology.static_power_w``
and ``clock_power_w`` plus the VIO constants, summed through
``RailPower``. Every rail must match bit for bit, for any persona,
voltage, clock and temperature, including temperatures past the
leakage exponent's clamp.
"""

from __future__ import annotations

from hypothesis import example, given
from hypothesis import strategies as st

from repro.power.calibration import DEFAULT_CALIBRATION, Calibration
from repro.power.chip_power import ChipPowerModel, OperatingPoint, RailPower
from repro.power.technology import clock_power_w, static_power_w
from repro.silicon.variation import CHIP1, CHIP2, CHIP3, TYPICAL, ChipPersona

PERSONAS = (TYPICAL, CHIP1, CHIP2, CHIP3)
CALIB = DEFAULT_CALIBRATION


def reference_static(
    persona: ChipPersona, calib: Calibration, op: OperatingPoint
) -> RailPower:
    vdd_w, vcs_w = static_power_w(op.vdd, op.vcs, op.temp_c, persona, calib)
    return RailPower(vdd_w, vcs_w, 0.012 * (op.vio / calib.vio_nom) ** 2)


def reference_idle(
    persona: ChipPersona, calib: Calibration, op: OperatingPoint
) -> RailPower:
    clk_vdd, clk_vcs = clock_power_w(
        op.vdd, op.vcs, op.freq_hz, persona, calib
    )
    io_clock_w = 0.055 * (op.vio / calib.vio_nom) ** 2
    return reference_static(persona, calib, op) + RailPower(
        clk_vdd, clk_vcs, io_clock_w
    )


def assert_rails_identical(got: RailPower, want: RailPower) -> None:
    assert got.vdd_w == want.vdd_w
    assert got.vcs_w == want.vcs_w
    assert got.vio_w == want.vio_w


#: The exponent reaches its clamp of 40 near 2,525 degC at nominal VDD.
CLAMP_C = CALIB.t_ref_c + 40.0 / CALIB.leak_per_degc


@st.composite
def operating_points(draw) -> OperatingPoint:
    vdd = draw(st.floats(0.6, 1.3))
    return OperatingPoint(
        vdd=vdd,
        vcs=draw(st.floats(vdd, vdd + 0.1)),
        vio=draw(st.floats(1.6, 2.0)),
        freq_hz=draw(st.floats(50e6, 900e6)),
        temp_c=draw(
            st.one_of(
                st.floats(-20.0, 150.0), st.floats(150.0, CLAMP_C + 200.0)
            )
        ),
    )


@given(st.sampled_from(PERSONAS), operating_points())
@example(CHIP1, OperatingPoint(vdd=1.2, vcs=1.25, temp_c=CLAMP_C + 100.0))
@example(CHIP3, OperatingPoint(vdd=1.0, vcs=1.05, temp_c=CLAMP_C))
@example(TYPICAL, OperatingPoint(vdd=0.6, vcs=0.6, temp_c=-20.0))
def test_curve_matches_unfolded_pricing(persona, op):
    model = ChipPowerModel(persona, CALIB)
    assert_rails_identical(
        model.static_power(op), reference_static(persona, CALIB, op)
    )
    idle = reference_idle(persona, CALIB, op)
    assert_rails_identical(model.idle_power(op), idle)
    curve = model.idle_curve(op)
    assert curve.total_w(op.temp_c) == idle.total_w
    assert_rails_identical(curve.rails(op.temp_c), idle)


@given(
    st.sampled_from(PERSONAS),
    operating_points(),
    st.lists(st.floats(-20.0, CLAMP_C + 200.0), min_size=1, max_size=8),
)
def test_one_curve_prices_every_temperature(persona, op, temps):
    # A loop that holds (V, f) prices many temperatures from one curve;
    # each must equal a fresh operating point at that temperature.
    model = ChipPowerModel(persona, CALIB)
    curve = model.idle_curve(op)
    for temp in temps:
        at = OperatingPoint(op.vdd, op.vcs, op.vio, op.freq_hz, temp)
        want = reference_idle(persona, CALIB, at)
        assert curve.total_w(temp) == want.total_w
        assert_rails_identical(
            curve.static_rails(temp), reference_static(persona, CALIB, at)
        )
