"""Simulation-as-a-service: the ``repro serve`` daemon and its cache.

The package splits along the daemon's three concerns:

* :mod:`repro.serve.cas`    — the service's result store (a
  :class:`~repro.resilience.store.ResultCache`, the store run
  checkpoints use too) and :class:`~repro.serve.cas.CasJournal`, the
  checkpoint journal view that lets the grid executor read and write
  it per timing class;
* :mod:`repro.serve.jobs`   — job manifests and live telemetry-event
  capture for ``GET /v1/jobs/<id>``;
* :mod:`repro.serve.http`   — the minimal stdlib HTTP/1.1 layer;
* :mod:`repro.serve.daemon` — routing, admission control (queue
  bound, drain mode), tier-aware cache arbitration, in-flight
  request coalescing, and startup recovery;
* :mod:`repro.serve.workers` — the process-isolated execution tier
  (supervised worker processes with heartbeats/deadlines/retries);
* :mod:`repro.serve.journal` — the durable job journal recovery
  replays after a crash.

``GET /v1/status`` serves the document ``repro status --json``
prints: :func:`repro.resilience.status_document`, re-exported here
with its ``STATUS_SCHEMA_VERSION``.
"""

from repro.resilience import STATUS_SCHEMA_VERSION, status_document
from repro.serve.cas import (
    DEFAULT_CAS_DIR,
    CacheEntry,
    CasJournal,
    ResultCache,
)
from repro.serve.daemon import SimulationService
from repro.serve.jobs import Job, JobRegistry
from repro.serve.journal import (
    DEFAULT_JOBS_DIR,
    JobJournal,
    JobRecord,
)
from repro.serve.workers import WorkerTier

__all__ = [
    "DEFAULT_CAS_DIR",
    "DEFAULT_JOBS_DIR",
    "CacheEntry",
    "CasJournal",
    "Job",
    "JobJournal",
    "JobRecord",
    "JobRegistry",
    "ResultCache",
    "STATUS_SCHEMA_VERSION",
    "SimulationService",
    "WorkerTier",
    "status_document",
]
