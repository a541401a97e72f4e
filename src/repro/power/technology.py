"""Device-physics relations for the 32nm-SOI-like technology model.

First-order equations, each one the relation the paper itself uses to
explain its measurements:

* leakage exponential in voltage and temperature (Roy et al. [51] via
  Section IV-J's "exponential relationship between power and
  temperature ... caused by leakage"),
* clock/idle dynamic power = C V^2 f,
* maximum frequency from the alpha-power law (Sakurai-Newton), which
  captures the near-linear-but-curving Fmax-vs-VDD of Figure 9.
"""

from __future__ import annotations

import math

from repro.power.calibration import Calibration, DEFAULT_CALIBRATION
from repro.silicon.variation import ChipPersona, TYPICAL


def leakage_scale(
    vdd: float,
    temp_c: float,
    calib: Calibration = DEFAULT_CALIBRATION,
) -> float:
    """Multiplier on nominal static power at (vdd, temp)."""
    dv = vdd - calib.vdd_nom
    dt = temp_c - calib.t_ref_c
    exponent = calib.leak_per_volt * dv + calib.leak_per_degc * dt
    # Clamp: beyond this the operating point is deep in thermal
    # runaway and callers only need "very large", not infinity.
    return math.exp(min(exponent, 40.0))


def static_power_w(
    vdd: float,
    vcs: float,
    temp_c: float,
    persona: ChipPersona = TYPICAL,
    calib: Calibration = DEFAULT_CALIBRATION,
) -> tuple[float, float]:
    """(VDD static, VCS static) in watts.

    The SRAM rail tracks VDD in every paper experiment
    (VCS = VDD + 0.05); its leakage uses its own voltage but the same
    exponential coefficients. The simulator prices static power through
    :class:`repro.power.chip_power.IdleCurve`, which folds this
    relation per operating point and must match it bit for bit.
    """
    total_nom = calib.static_total_w * persona.leak
    vdd_part = total_nom * calib.static_vdd_frac * leakage_scale(
        vdd, temp_c, calib
    )
    vcs_part = (
        total_nom
        * (1.0 - calib.static_vdd_frac)
        * math.exp(
            min(
                calib.leak_per_volt * (vcs - calib.vcs_nom)
                + calib.leak_per_degc * (temp_c - calib.t_ref_c),
                40.0,
            )
        )
    )
    return vdd_part, vcs_part


def clock_power_w(
    vdd: float,
    vcs: float,
    freq_hz: float,
    persona: ChipPersona = TYPICAL,
    calib: Calibration = DEFAULT_CALIBRATION,
) -> tuple[float, float]:
    """(VDD, VCS) idle dynamic power: clock trees + free-running FSMs."""
    cap = calib.idle_cap_f * persona.dyn
    vdd_part = cap * calib.idle_vdd_frac * vdd * vdd * freq_hz
    vcs_part = cap * (1.0 - calib.idle_vdd_frac) * vcs * vcs * freq_hz
    return vdd_part, vcs_part


def fmax_hz(
    vdd: float,
    persona: ChipPersona = TYPICAL,
    calib: Calibration = DEFAULT_CALIBRATION,
) -> float:
    """Alpha-power-law maximum clock frequency at ``vdd`` (no thermal
    limit; :class:`repro.power.vf_curve.VfCurve` adds that)."""
    if vdd <= calib.vth_v:
        return 0.0

    def shape(v: float) -> float:
        return (v - calib.vth_v) ** calib.alpha / v

    scale = calib.fmax_ref_hz / shape(calib.fmax_ref_vdd)
    return persona.speed * scale * shape(vdd)
