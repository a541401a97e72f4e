"""Measurement statistics used throughout the characterization.

The paper reports every number as the average of 128 samples from the
on-board voltage monitors with error bars equal to the sample standard
deviation. :class:`Measurement` captures that convention so experiment
code can carry value and uncertainty together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def mean_std(samples: Sequence[float] | np.ndarray) -> tuple[float, float]:
    """Return (mean, standard deviation) of ``samples``.

    Uses the population standard deviation (ddof=0), matching "standard
    deviation of the samples from the average" as the paper states.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty sample set")
    return float(arr.mean()), float(arr.std())


@dataclass(frozen=True)
class Measurement:
    """A value with a one-sigma uncertainty, in base units.

    Supports the arithmetic the characterization pipelines need
    (difference of powers, scaling by latency, division by frequency)
    with first-order, uncorrelated error propagation.
    """

    value: float
    sigma: float = 0.0

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "Measurement":
        mean, std = mean_std(list(samples))
        return cls(mean, std)

    def __add__(self, other: "Measurement | float") -> "Measurement":
        if isinstance(other, Measurement):
            return Measurement(
                self.value + other.value, math.hypot(self.sigma, other.sigma)
            )
        return Measurement(self.value + other, self.sigma)

    __radd__ = __add__

    def __sub__(self, other: "Measurement | float") -> "Measurement":
        if isinstance(other, Measurement):
            return Measurement(
                self.value - other.value, math.hypot(self.sigma, other.sigma)
            )
        return Measurement(self.value - other, self.sigma)

    def __rsub__(self, other: float) -> "Measurement":
        return Measurement(other - self.value, self.sigma)

    def __mul__(self, factor: float) -> "Measurement":
        return Measurement(self.value * factor, abs(self.sigma * factor))

    __rmul__ = __mul__

    def __truediv__(self, divisor: float) -> "Measurement":
        return Measurement(self.value / divisor, abs(self.sigma / divisor))

    def __neg__(self) -> "Measurement":
        return Measurement(-self.value, self.sigma)

    def format(self, scale: float = 1.0, digits: int = 2) -> str:
        """Render as ``value±sigma`` after dividing by ``scale``."""
        return (
            f"{self.value / scale:.{digits}f}"
            f"±{self.sigma / scale:.{digits}f}"
        )
