"""Event ledger: the bridge between simulation and the power model.

Every substrate (core, caches, NoC, DRAM, chip bridge) records the
energy-relevant events it performs — instruction executions by class,
cache accesses by level, flit-hop traversals weighted by bit-switching
activity, DRAM bursts, pipeline rollbacks — into an
:class:`EventLedger`. The power model later converts event counts into
joules. Keeping the ledger purely numeric (name -> count and
activity-weighted count) decouples the architectural simulators from
the power model that prices their behaviour.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Mapping


@dataclass
class EventLedger:
    """Accumulates named event counts and activity-weighted counts.

    ``counts[name]`` is the raw number of events; ``weights[name]`` is
    the sum of per-event activity factors (a value in [0, 1] describing
    how many datapath bits toggled). An event recorded without an
    explicit weight contributes a default activity of 0.5 — the
    random-data switching expectation.
    """

    DEFAULT_ACTIVITY = 0.5

    counts: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )
    weights: dict[str, float] = field(
        default_factory=lambda: defaultdict(float)
    )

    def record(self, name: str, n: float = 1.0, activity: float | None = None) -> None:
        """Record ``n`` events named ``name`` with a mean ``activity``."""
        if n < 0:
            raise ValueError(f"negative event count for {name!r}")
        act = self.DEFAULT_ACTIVITY if activity is None else activity
        if not 0.0 <= act <= 1.0:
            raise ValueError(f"activity {act} outside [0, 1] for {name!r}")
        self.counts[name] += n
        self.weights[name] += n * act

    def add_bulk(self, name: str, n: float, weight: float) -> None:
        """Fold a pre-aggregated batch of ``n`` events directly in.

        The hot simulation loops accumulate events in interned per-core
        counters and flush them here once per engine run; ``weight`` is
        the already-summed activity weight for the batch (what ``n``
        individual :meth:`record` calls would have accumulated). Skips
        per-event validation — callers are trusted aggregators.
        """
        self.counts[name] += n
        self.weights[name] += weight

    def count(self, name: str) -> float:
        return self.counts.get(name, 0.0)

    def mean_activity(self, name: str) -> float:
        """Average activity factor over all recorded ``name`` events."""
        total = self.counts.get(name, 0.0)
        if total == 0:
            return self.DEFAULT_ACTIVITY
        return self.weights[name] / total

    def merge(self, other: "EventLedger") -> None:
        """Fold another ledger's events into this one."""
        for name, n in other.counts.items():
            self.counts[name] += n
        for name, w in other.weights.items():
            self.weights[name] += w

    def scaled(self, factor: float) -> "EventLedger":
        """Return a copy with all counts and weights multiplied.

        Used to extrapolate a steady-state measurement window from a
        shorter simulated window.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        out = EventLedger()
        for name, n in self.counts.items():
            out.counts[name] = n * factor
        for name, w in self.weights.items():
            out.weights[name] = w * factor
        return out

    def names(self) -> Iterable[str]:
        return self.counts.keys()

    def as_dict(self) -> Mapping[str, float]:
        return dict(self.counts)

    def clear(self) -> None:
        self.counts.clear()
        self.weights.clear()
