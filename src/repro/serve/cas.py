"""The service's result store and the journal view the executor uses.

``repro serve`` keeps one :class:`~repro.resilience.store.ResultCache`
under ``results/cas/`` for its whole life, in two namespaces:

* ``point`` — one pickled :class:`~repro.system.SimOutcome` per
  simulated timing class, written and served through
  :class:`CasJournal`: one entry serves every grid point of its
  class, in any grid, so a frequency-independent class cached at one
  clock is a hit at every other clock;
* ``run`` — complete ``ExperimentResult`` JSON documents for
  ``POST /v1/run``, returned byte-for-byte on a warm hit.
"""

from __future__ import annotations

from repro.obs.trace import NULL_TRACER, Tracer
from repro.resilience.checkpoint import CheckpointJournal
from repro.resilience.store import CacheEntry, ResultCache

__all__ = ["DEFAULT_CAS_DIR", "CacheEntry", "CasJournal", "ResultCache"]

#: Where ``repro serve`` keeps the store unless told otherwise.
DEFAULT_CAS_DIR = "results/cas"


class CasJournal(CheckpointJournal):
    """The service's store seen as a checkpoint that is never retired.

    It stores and serves outcomes as a resumed
    :class:`~repro.resilience.CheckpointJournal` does, except that:

    * the tier gate runs on the entry's header before any unpickle
      (:meth:`ResultCache.lookup`): a surrogate-tier entry the
      requested tier cannot accept is a miss, and the cycle-level
      outcome the executor then produces overwrites it;
    * every get counts ``cas_hits`` or ``cas_misses`` on the tracer,
      which is how they reach job manifests and sweep documents;
    * :meth:`write_meta` and :meth:`complete` do nothing: the store is
      the service's memory, not a crash artifact to be retired.
    """

    def __init__(
        self,
        cache: ResultCache,
        tier: str = "sim",
        tolerance: float = 0.05,
        tracer: Tracer = NULL_TRACER,
    ):
        super().__init__(cache.root, resume=True)
        self.cache = cache
        self.tier = tier
        self.tolerance = tolerance
        self.tracer = tracer

    def _entry(self, key: bytes) -> CacheEntry | None:
        return self.cache.lookup(
            "point", key, tier=self.tier, tolerance=self.tolerance
        )

    def get(self, index: int, key: bytes) -> object | None:
        outcome = super().get(index, key)
        self.tracer.count("cas_misses" if outcome is None else "cas_hits")
        return outcome

    def write_meta(self, **_kwargs: object) -> None:
        pass

    def complete(self) -> None:
        pass
