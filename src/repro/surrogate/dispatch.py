"""Two-tier dispatch policy: surrogate when safe, simulator otherwise.

A :class:`FidelityPolicy` is what the grid executor
(:func:`repro.experiments.parallel.batched_simulate`) consults per
point:

* ``predict(request)`` returns a ``tier="fast"`` outcome when a
  calibrated profile covers the request and its error bound fits the
  tolerance — otherwise ``None``, and the point falls back to the
  cycle-level simulator. Novel workloads (no profile), out-of-envelope
  clocks, and requests running invariant checks always fall back.
* :func:`tier_accepts` is the one rule for reusing a stored result
  across tiers, applied to journaled outcomes
  (:func:`accepts_cached_outcome`) and to result-cache entries alike:
  cycle-level results are reusable under any tier, but a surrogate
  result is only reusable when the active policy would have served
  it — a ``--tier sim`` resume of an ``auto`` journal re-simulates
  every fast point rather than silently keeping it.

Accounting lands on the run tracer: ``surrogate_hits`` /
``surrogate_fallbacks`` / ``points_tier_rejected`` counters (→
``RunManifest.resilience``) and the ``surrogate_max_err`` gauge (→
``RunManifest.extra``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.obs.trace import NULL_TRACER, Tracer
from repro.surrogate.model import SurrogateModel, profile_key
from repro.surrogate.store import ProfileStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import SimOutcome, SimRequest

#: The ``--tier`` vocabulary. ``sim`` never constructs a policy — it
#: is the absence of one (``fidelity=None``), keeping every legacy
#: call site on the bit-exact path by default.
TIERS = ("sim", "auto", "fast")


def tier_accepts(
    stored: str, stored_err: float, tier: str, tolerance: float
) -> bool:
    """Whether a result computed at tier ``stored`` (error bound
    ``stored_err``) may answer a ``tier`` request.

    A cycle-level result answers every tier. A surrogate result
    answers ``fast`` always, ``auto`` only within ``tolerance``, and
    ``sim`` never.
    """
    if stored != "fast":
        return True
    if tier == "fast":
        return True
    return tier == "auto" and stored_err <= tolerance


@dataclass
class FidelityPolicy:
    """Per-run dispatch state for ``--tier auto`` / ``--tier fast``."""

    store: ProfileStore
    tier: str = "auto"
    #: Worst acceptable relative error bound for a surrogate-served
    #: point under ``auto`` (the CLI's ``--fidelity``).
    tolerance: float = 0.05
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)
    _models: dict[str, SurrogateModel | None] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.tier not in ("auto", "fast"):
            raise ValueError(
                f"FidelityPolicy tier must be 'auto' or 'fast', "
                f"got {self.tier!r} (tier 'sim' means no policy)"
            )
        if self.tolerance <= 0:
            raise ValueError("fidelity tolerance must be positive")

    # -------------------------------------------------------------- dispatch
    def model_for(self, request: "SimRequest") -> SurrogateModel | None:
        key = profile_key(request)
        if key not in self._models:
            profile = self.store.get(key)
            self._models[key] = (
                None if profile is None else SurrogateModel(profile)
            )
        return self._models[key]

    def predict(self, request: "SimRequest") -> "SimOutcome | None":
        """The fast-path outcome, or ``None`` to run the simulator."""
        if request.checks:
            # Invariant sweeps only exist inside a real simulation.
            self.tracer.count("surrogate_fallbacks")
            return None
        model = self.model_for(request)
        if model is None or not model.in_envelope(request):
            self.tracer.count("surrogate_fallbacks")
            return None
        if self.tier == "auto" and model.error_bound > self.tolerance:
            self.tracer.count("surrogate_fallbacks")
            return None
        outcome = model.predict(request)
        self.tracer.count("surrogate_hits")
        self.tracer.gauge_max("surrogate_max_err", outcome.tier_err)
        return outcome


def accepts_cached_outcome(
    outcome: "SimOutcome", fidelity: FidelityPolicy | None
) -> bool:
    """Tier-aware journal acceptance for the grid executor.

    With no policy (``--tier sim``), only cycle-level points are
    reusable: resuming an ``auto`` journal at full fidelity
    re-simulates every surrogate-served point instead of silently
    keeping it.
    """
    return tier_accepts(
        getattr(outcome, "tier", "sim"),
        getattr(outcome, "tier_err", 0.0),
        "sim" if fidelity is None else fidelity.tier,
        0.0 if fidelity is None else fidelity.tolerance,
    )
