"""The 128-sample measurement protocol.

"Unless otherwise specified, all experiments in this work record 128
voltage and current samples (about a 7.5 second time window) after the
system reaches a steady state. We report the average power calculated
from the 128 samples [with] error ... the standard deviation of the
samples from the average."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.board import MONITOR_POLL_HZ
from repro.board.sense import CurrentSenseChannel, SenseResistor, VoltageMonitor
from repro.power.chip_power import RailPower
from repro.util.stats import Measurement

#: true_power(t_seconds) -> RailPower: what the chip is really drawing.
PowerSource = Callable[[float], RailPower]

#: Points one array pass reads: each holds about 12 KB of temporaries,
#: so a pass stays under 400 KB however large the grid.
_POINTS_PER_PASS = 32


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
        self, power_source: PowerSource, voltages: dict[str, float]
    ) -> RailMeasurement:
        """Record the standard 128 samples and reduce them.

        ``power_source`` is sampled at the monitor poll instants from
        t = 0, so real power fluctuations (phases, refresh) land in the
        error bar exactly as they would on the bench.
        """
        true_w = np.array([[
            (p.vdd_w, p.vcs_w, p.vio_w)
            for p in (
                power_source(k / self.poll_hz) for k in range(self.samples)
            )
        ]])
        return self._sample(true_w, self._volts([voltages]))[0]

    def measure_steady(
        self, power: RailPower, voltages: dict[str, float]
    ) -> RailMeasurement:
        """Measure a time-invariant power draw."""
        return self.measure_points([power], [voltages])[0]

    def measure_points(
        self,
        powers: Sequence[RailPower],
        voltages: Sequence[dict[str, float]],
    ) -> list[RailMeasurement]:
        """Measure each point's time-invariant draw ``powers[i]`` at
        ``voltages[i]`` with one block of noise: every point gets what
        :meth:`measure_steady` would give it as this protocol's next
        measurement."""
        true_w = np.array([(p.vdd_w, p.vcs_w, p.vio_w) for p in powers])
        return self._sample(true_w, self._volts(voltages))

    @staticmethod
    def _volts(voltages: Sequence[dict[str, float]]) -> np.ndarray:
        return np.array([(v["vdd"], v["vcs"], v["vio"]) for v in voltages])

    def _sample(
        self, true_w: np.ndarray, volts: np.ndarray
    ) -> list[RailMeasurement]:
        """Read each point's ``true_w`` (points x rails for a steady
        draw, or points x samples x rails) at its ``volts`` (points x
        rails) through the monitors.

        One draw supplies every reading's noise, in the order the bench
        polls: sample, then rail, then voltage, high and low monitor.
        Element for element this is :meth:`VoltageMonitor.read` and
        :meth:`CurrentSenseChannel.read_current_a` in that order, and
        every point reads the same block. Rails reduce as rows of a
        contiguous ``(points, rails, samples)`` copy, summed pairwise
        like ``mean_std``; a samples axis that is not the last would
        sum row by row and move the last bits. Passes of up to
        ``_POINTS_PER_PASS`` points read and reduce in place.
        """
        noise = self._rng.standard_normal((self.samples, *self._sigma.shape))
        noise *= self._sigma
        volts = volts[:, None]
        true_w = true_w.reshape(len(volts), -1, 3)
        means, stds = [], []
        for first in range(0, len(volts), _POINTS_PER_PASS):
            rows = self._read(
                noise,
                true_w[first:first + _POINTS_PER_PASS],
                volts[first:first + _POINTS_PER_PASS],
            )
            # numpy's mean and std, in place: the sum over the count,
            # then the root of the mean squared deviation from it.
            mean = rows.sum(axis=2, keepdims=True)
            mean /= self.samples
            rows -= mean
            rows *= rows
            std = rows.sum(axis=2)
            std /= self.samples
            np.sqrt(std, out=std)
            means += mean[..., 0].tolist()
            stds += std.tolist()
        return [
            RailMeasurement(*map(Measurement, m, s))
            for m, s in zip(means, stds)
        ]

    def _read(
        self, noise: np.ndarray, true_w: np.ndarray, volts: np.ndarray
    ) -> np.ndarray:
        """Each point's power samples as ``(points, rails, samples)``."""
        true_v = np.empty((*true_w.shape, 3))
        true_v[...] = volts[..., None]
        true_v[..., 1] = volts + true_w / volts * self._ohms
        # Each monitor's ADC rounds to the nearest LSB, ties to even.
        read = noise + true_v
        read /= self._lsb
        np.rint(read, out=read)
        read *= self._lsb
        power = read[..., 1]
        power -= read[..., 2]
        power /= self._ohms
        power *= read[..., 0]
        return power.transpose(0, 2, 1).copy()
