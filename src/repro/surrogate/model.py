"""The closed-form fast path: profile + power equations -> SimOutcome.

:class:`SurrogateModel` predicts what the cycle-level simulator *would*
produce for a request, in microseconds instead of seconds. It builds a
synthetic :class:`~repro.system.SimOutcome` — event ledger, cycle and
instruction counts — by interpolating the profile's anchor runs along
the clock axis, and hands it to the exact same downstream measurement
path (:meth:`repro.system.PitonSystem.measure_outcome` →
:class:`repro.power.chip_power.ChipPowerModel`) a real simulation would
take. Voltage, persona, temperature, and per-event pricing are
therefore evaluated *exactly*; only the event counts of
frequency-dependent workloads carry interpolation error, and that error
is bounded by the profile's validation-fitted bars.

Predicted outcomes are stamped ``tier="fast"`` with the profile's
error bound in ``tier_err``, which is how checkpoint journals stay
tier-aware across ``--resume``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING

from repro.batch.key import affinity_key
from repro.core.multicore import RunResult
from repro.surrogate.profile import AnchorRun, WorkloadProfile
from repro.system import SimOutcome
from repro.util.events import EventLedger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import SimRequest


def profile_key(request: "SimRequest") -> str:
    """The store key of ``request``'s workload-affinity class."""
    return affinity_key(request).hex()


class SurrogateModel:
    """Predicts simulation outcomes from one calibrated profile."""

    def __init__(self, profile: WorkloadProfile):
        self.profile = profile
        self._freqs = [a.freq_hz for a in profile.anchors]

    # ----------------------------------------------------------- applicability
    @property
    def error_bound(self) -> float:
        return self.profile.error_bound

    def in_envelope(self, request: "SimRequest") -> bool:
        """Whether ``request`` sits inside the calibrated envelope.

        Frequency-independent workloads are exact at any clock; for
        frequency-dependent ones only clocks bracketed by anchors are
        interpolatable — extrapolation is never attempted.
        """
        if self.profile.freq_independent:
            return True
        return (
            self.profile.freq_min_hz
            <= request.freq_hz
            <= self.profile.freq_max_hz
        )

    # ------------------------------------------------------------- prediction
    def predict(self, request: "SimRequest") -> SimOutcome:
        """The synthetic outcome for an in-envelope request."""
        if not self.in_envelope(request):
            raise ValueError(
                f"frequency {request.freq_hz/1e6:.1f} MHz outside "
                f"calibrated envelope "
                f"[{self.profile.freq_min_hz/1e6:.1f}, "
                f"{self.profile.freq_max_hz/1e6:.1f}] MHz"
            )
        anchors = self.profile.anchors
        if self.profile.freq_independent or len(anchors) == 1:
            return self._from_anchor(anchors[0], exact=True)

        f = request.freq_hz
        idx = bisect_right(self._freqs, f)
        if idx > 0 and self._freqs[idx - 1] == f:
            # Exactly on an anchor: reproduce its ledger bit-for-bit.
            return self._from_anchor(anchors[idx - 1], exact=True)
        lo, hi = anchors[idx - 1], anchors[idx]
        return self._interpolate(lo, hi, f)

    def _from_anchor(self, anchor: AnchorRun, exact: bool) -> SimOutcome:
        ledger = EventLedger()
        for name, n in anchor.counts.items():
            ledger.counts[name] = n
        for name, w in anchor.weights.items():
            ledger.weights[name] = w
        return SimOutcome(
            ledger=ledger,
            result=RunResult(
                cycles=anchor.cycles,
                instructions=anchor.instructions,
                completed=anchor.completed,
            ),
            engine=None,
            tier="fast",
            tier_err=0.0 if exact else self.error_bound,
        )

    def _interpolate(
        self, lo: AnchorRun, hi: AnchorRun, freq_hz: float
    ) -> SimOutcome:
        t = (freq_hz - lo.freq_hz) / (hi.freq_hz - lo.freq_hz)
        ledger = EventLedger()
        for name in set(lo.counts) | set(hi.counts):
            a, b = lo.counts.get(name, 0.0), hi.counts.get(name, 0.0)
            ledger.counts[name] = a + t * (b - a)
        for name in set(lo.weights) | set(hi.weights):
            a, b = lo.weights.get(name, 0.0), hi.weights.get(name, 0.0)
            ledger.weights[name] = a + t * (b - a)
        cycles = round(lo.cycles + t * (hi.cycles - lo.cycles))
        instructions = round(
            lo.instructions + t * (hi.instructions - lo.instructions)
        )
        return SimOutcome(
            ledger=ledger,
            result=RunResult(
                cycles=int(cycles),
                instructions=int(instructions),
                completed=lo.completed and hi.completed,
            ),
            engine=None,
            tier="fast",
            tier_err=self.error_bound,
        )
