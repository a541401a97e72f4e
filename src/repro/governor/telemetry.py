"""What the governor actually reads: the board's instruments.

The control loop does not get the model's exact watts — it samples the
same virtual I2C monitors the measurement protocol uses (quantized,
noisy, across a sense resistor), at the same
:data:`repro.board.MONITOR_POLL_HZ` tick. Feedback policies therefore
regulate against realistic telemetry while the invariants in
:mod:`repro.check` are judged on the true model power, exactly the gap
a real power-capping controller lives with.
"""

from __future__ import annotations

import numpy as np

from repro.board.sense import CurrentSenseChannel, SenseResistor, VoltageMonitor


class PowerTelemetry:
    """One seeded power-sense channel (voltage monitor + shunt).

    Deterministic for a given seed regardless of process: the stream
    comes from ``np.random.default_rng(seed)``, so a scenario measured
    in a worker pool reads bit-identical samples to one measured
    serially.

    A reading's three noise draws (rail monitor, shunt high and low
    sides) come :attr:`BLOCK` readings at a time from one generator
    call, the same stream as the monitors' scalar draws; each reading
    then applies the monitors' rounding.
    """

    #: Readings whose noise one generator call draws.
    BLOCK = 256

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        vmon = VoltageMonitor(self._rng)
        imon = CurrentSenseChannel(SenseResistor(), self._rng)
        self._sigmas = [m.noise_sigma_v for m in (vmon, imon.high, imon.low)]
        self._lsb_v, self._lsb_i = vmon.lsb_v, imon.high.lsb_v
        self._ohms = imon.resistor.ohms
        self._noise = iter(())

    def read_power_w(self, true_power_w: float, rail_v: float) -> float:
        """Measure a true draw through the instruments, in watts."""
        if rail_v <= 0:
            raise ValueError("rail voltage must be positive")
        noise = next(self._noise, None)
        if noise is None:
            block = self._rng.normal(0.0, self._sigmas, (self.BLOCK, 3))
            self._noise = iter(block.tolist())
            noise = next(self._noise)
        n_v, n_high, n_low = noise
        lsb_v, lsb_i, ohms = self._lsb_v, self._lsb_i, self._ohms
        high = rail_v + true_power_w / rail_v * ohms
        v_meas = round((rail_v + n_v) / lsb_v) * lsb_v
        high = round((high + n_high) / lsb_i) * lsb_i
        low = round((rail_v + n_low) / lsb_i) * lsb_i
        return v_meas * ((high - low) / ohms)
