"""Maximum-frequency-versus-voltage with thermal limiting (Figure 9).

The unconstrained Fmax comes from the alpha-power law; the *achievable*
Fmax additionally requires a stable thermal operating point: the die
temperature implied by running at (V, f) — including the
leakage-temperature feedback — must stay below the stability ceiling.
Fast, leaky silicon (Chip #1) therefore wins at low voltage and loses
above ~1.15V, reproducing the curve crossing and the 1.2V droop.

The gateway FPGA drives a discretized PLL reference clock, so tested
frequencies land on a grid; :meth:`VfCurve.boot_frequency` quantizes
and reports the grid step as the quantization error bar, like the
paper's Figure 9 error bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.power.calibration import Calibration, DEFAULT_CALIBRATION
from repro.power.chip_power import ChipPowerModel, OperatingPoint
from repro.silicon.variation import ChipPersona, TYPICAL
from repro.power.technology import fmax_hz

#: PLL reference quantum: the reference clock steps the gateway FPGA
#: can synthesize land the core clock on a ~7.15 MHz grid (the default
#: 500.05 MHz operating point sits on it).
FREQ_STEP_HZ = 7.1436e6


@dataclass(frozen=True)
class VfPoint:
    """One point of the Figure 9 sweep."""

    vdd: float
    fmax_hz: float
    quantization_hz: float
    thermally_limited: bool
    die_temp_c: float


class VfCurve:
    """Fmax sweep machinery for one chip persona."""

    #: Power margin representing the OS-boot workload (Linux boot is
    #: mostly idle-with-bursts; measured boot power sits slightly above
    #: idle).
    BOOT_ACTIVITY_W = 0.12

    def __init__(
        self,
        persona: ChipPersona = TYPICAL,
        calib: Calibration = DEFAULT_CALIBRATION,
        ambient_c: float = 25.0,
    ):
        self.persona = persona
        self.calib = calib
        self.ambient_c = ambient_c
        self.power_model = ChipPowerModel(persona, calib)

    # --------------------------------------------------------------- thermal
    def steady_temp_c(self, vdd: float, vcs: float, freq_hz: float) -> float:
        """Fixed point of T = T_amb + R_ja * P(V, f, T).

        The leakage-temperature feedback converges quickly because
        d(P)/dT * R_ja << 1 in the stable region; iterate to tolerance
        and cap the runaway case at a sentinel above t_max.
        """
        curve = self.power_model.idle_curve(
            OperatingPoint(vdd=vdd, vcs=vcs, freq_hz=freq_hz)
        )
        boot_w = self.BOOT_ACTIVITY_W * (vdd / self.calib.vdd_nom) ** 2
        temp = self.ambient_c
        for _ in range(60):
            power = curve.total_w(temp) + boot_w
            new_temp = self.ambient_c + self.calib.r_theta_ja * power
            if abs(new_temp - temp) < 0.01:
                return new_temp
            if new_temp > self.calib.t_max_c + 60:
                return new_temp  # thermal runaway; clearly unstable
            temp = new_temp
        return temp

    # ------------------------------------------------------------------ fmax
    def achievable_fmax_hz(self, vdd: float) -> tuple[float, bool, float]:
        """(fmax, thermally_limited, die_temp) at ``vdd``.

        VCS rides 0.05V above VDD as in every paper experiment.
        """
        vcs = vdd + 0.05
        f_circuit = fmax_hz(vdd, self.persona, self.calib)
        temp = self.steady_temp_c(vdd, vcs, f_circuit)
        if temp <= self.calib.t_max_c:
            return f_circuit, False, temp
        # Walk frequency down until the thermal fixed point is stable.
        f = f_circuit
        while f > FREQ_STEP_HZ:
            f -= FREQ_STEP_HZ
            temp = self.steady_temp_c(vdd, vcs, f)
            if temp <= self.calib.t_max_c:
                return f, True, temp
        return 0.0, True, temp

    def boot_frequency(self, vdd: float) -> VfPoint:
        """Highest grid frequency at which Linux boots at ``vdd``.

        Memoized across VfCurve instances: sweep runners construct a
        fresh curve per point with identical (persona, calib, ambient)
        arguments, and the thermal fixed point is the expensive part of
        resolving a grid point's frequency. The cache key is the full
        curve identity, and :class:`VfPoint` is frozen, so the cached
        value is bit-identical to and as safe as a fresh solve.
        """
        return _cached_boot_point(
            self.persona, self.calib, self.ambient_c, vdd
        )

    def _solve_boot_frequency(self, vdd: float) -> VfPoint:
        fmax, limited, temp = self.achievable_fmax_hz(vdd)
        quantized = (fmax // FREQ_STEP_HZ) * FREQ_STEP_HZ
        return VfPoint(
            vdd=vdd,
            fmax_hz=quantized,
            quantization_hz=FREQ_STEP_HZ,
            thermally_limited=limited,
            die_temp_c=temp,
        )

    def sweep(self, vdd_values: list[float]) -> list[VfPoint]:
        return [self.boot_frequency(v) for v in vdd_values]


@lru_cache(maxsize=4096)
def _cached_boot_point(
    persona: ChipPersona, calib: Calibration, ambient_c: float, vdd: float
) -> VfPoint:
    return VfCurve(persona, calib, ambient_c)._solve_boot_frequency(vdd)
