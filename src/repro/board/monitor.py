"""The 128-sample measurement protocol.

"Unless otherwise specified, all experiments in this work record 128
voltage and current samples (about a 7.5 second time window) after the
system reaches a steady state. We report the average power calculated
from the 128 samples [with] error ... the standard deviation of the
samples from the average."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.board import MONITOR_POLL_HZ
from repro.board.sense import CurrentSenseChannel, SenseResistor, VoltageMonitor
from repro.power.chip_power import RailPower
from repro.util.stats import Measurement

#: true_power(t_seconds) -> RailPower: what the chip is really drawing.
PowerSource = Callable[[float], RailPower]


@dataclass(frozen=True)
class RailMeasurement:
    """Per-rail measured power, each with its sample-std error."""

    vdd: Measurement
    vcs: Measurement
    vio: Measurement

    @property
    def total(self) -> Measurement:
        return self.vdd + self.vcs + self.vio

    @property
    def core(self) -> Measurement:
        """VDD + VCS, the sum the EPI/EPF methodology uses."""
        return self.vdd + self.vcs


class MeasurementProtocol:
    """Polls the virtual monitors and reduces samples to mean +/- std."""

    def __init__(
        self,
        rng: np.random.Generator,
        poll_hz: float = MONITOR_POLL_HZ,
        samples: int = 128,
    ):
        if poll_hz <= 0 or samples <= 0:
            raise ValueError("poll rate and sample count must be positive")
        self.poll_hz = poll_hz
        self.samples = samples
        self._rng = rng
        self._rails = {
            "vdd": (
                VoltageMonitor(rng),
                CurrentSenseChannel(SenseResistor(), rng),
            ),
            "vcs": (
                VoltageMonitor(rng),
                CurrentSenseChannel(SenseResistor(), rng),
            ),
            "vio": (
                VoltageMonitor(rng),
                CurrentSenseChannel(SenseResistor(0.010), rng),
            ),
        }
        # Per rail (vdd, vcs, vio) and per reading in poll order (the
        # voltage monitor, then the shunt's high and low sides).
        monitors = [
            (vmon, imon.high, imon.low) for vmon, imon in self._rails.values()
        ]
        self._sigma = np.array(
            [[m.noise_sigma_v for m in rail] for rail in monitors]
        )
        self._lsb = np.array([[m.lsb_v for m in rail] for rail in monitors])
        self._ohms = np.array(
            [imon.resistor.ohms for _, imon in self._rails.values()]
        )

    def measure(
        self,
        power_source: PowerSource,
        voltages: dict[str, float],
        start_time_s: float = 0.0,
    ) -> RailMeasurement:
        """Record the standard 128 samples and reduce them.

        ``power_source`` is sampled at the monitor poll instants, so
        real power fluctuations (phases, refresh) land in the error bar
        exactly as they would on the bench.
        """
        true_w = np.array([
            (p.vdd_w, p.vcs_w, p.vio_w)
            for p in (
                power_source(start_time_s + k / self.poll_hz)
                for k in range(self.samples)
            )
        ])
        return self._sample(true_w, voltages)

    def measure_steady(
        self, power: RailPower, voltages: dict[str, float]
    ) -> RailMeasurement:
        """Measure a time-invariant power draw."""
        true_w = np.array((power.vdd_w, power.vcs_w, power.vio_w))
        return self._sample(true_w, voltages)

    def _sample(
        self, true_w: np.ndarray, voltages: dict[str, float]
    ) -> RailMeasurement:
        """Read ``true_w`` (samples x rails, or one row for a steady
        draw) through the monitors.

        One draw supplies every reading's noise, in the order the bench
        polls: sample, then rail, then voltage, high and low monitor.
        Element for element this is :meth:`VoltageMonitor.read` and
        :meth:`CurrentSenseChannel.read_current_a` in that order. Rails
        reduce as rows of a contiguous ``(rails, samples)`` copy, summed
        pairwise like ``mean_std``; axis 0 of ``(samples, rails)`` would
        sum row by row and move the last bits.
        """
        noise = self._rng.standard_normal((self.samples, *self._sigma.shape))
        noise *= self._sigma
        volts = np.array([voltages[rail] for rail in self._rails])
        true_v = np.empty((*true_w.shape, 3))
        true_v[...] = volts[:, None]
        true_v[..., 1] = volts + true_w / volts * self._ohms
        # Each monitor's ADC rounds to the nearest LSB, ties to even.
        read = np.rint((true_v + noise) / self._lsb) * self._lsb
        volts_meas, high, low = read[:, :, 0], read[:, :, 1], read[:, :, 2]
        power = (volts_meas * ((high - low) / self._ohms)).T.copy()
        return RailMeasurement(*map(
            Measurement, power.mean(axis=1).tolist(), power.std(axis=1).tolist()
        ))
