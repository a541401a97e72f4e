"""Fault-tolerant execution of long measurement campaigns.

The paper's characterization sweeps are hours-long grids of
independent simulation points. This package makes those grids survive
the failures long campaigns actually hit:

* **worker crashes and hangs** — :class:`SupervisedPool` replaces the
  bare ``multiprocessing.Pool`` fan-out with per-worker task queues
  and result pipes, start-of-point heartbeats, and a per-point
  deadline derived from the wall times of already-completed points
  (:func:`derive_deadline`);
* **transient failures** — failed or timed-out points are retried
  with exponential backoff (:func:`backoff_schedule`) under a bounded
  attempt budget, and degrade to one final in-process serial attempt
  so a single poisoned point slows the grid down instead of killing
  it;
* **operator interrupts** — every completed
  :class:`~repro.system.SimOutcome` is journaled to a CRC-checked
  checkpoint (:class:`CheckpointJournal`: a
  :class:`~repro.resilience.store.ResultCache` holding one atomically
  written entry per simulated timing class, under its batch key), so
  SIGINT/SIGTERM (:func:`resumable_signals`) checkpoints, tears the
  pool down cleanly, and exits with :data:`EXIT_RESUMABLE`; ``repro
  run <exp> --resume`` then skips the already-simulated points.

Every grid and every ``ctl_*`` scenario fan-out runs on
:class:`SupervisedPool` (in-process for serial runs), and
supervision never changes results — the simulator is a pure function
of its request, so a retried point is bit-identical to a first-try
point, and measurements always replay serially in grid order.

A pool's workers outlive the grid that forked them: between grids
they wait on their task queues, and the next ``map`` hands them its
points under its own policy and tracer. They end at
:meth:`SupervisedPool.close` (or the end of a ``with`` block), when an
exception or interrupt unwinds through ``map``, or with the process
that drives them. Grids and ``ctl_*`` arms draw one process-wide pool
per task function and job count
(:func:`repro.experiments.parallel.shared_pool`).
"""

from repro.resilience.checkpoint import (
    STATUS_SCHEMA_VERSION,
    CheckpointJournal,
    JournalStatus,
    journal_status,
    status_document,
)
from repro.resilience.policy import (
    RetryPolicy,
    backoff_schedule,
    derive_deadline,
)
from repro.resilience.pool import PointFailure, SupervisedPool, Supervision
from repro.resilience.signals import (
    EXIT_RESUMABLE,
    GridInterrupted,
    resumable_signals,
)

__all__ = [
    "CheckpointJournal",
    "EXIT_RESUMABLE",
    "GridInterrupted",
    "JournalStatus",
    "PointFailure",
    "RetryPolicy",
    "STATUS_SCHEMA_VERSION",
    "SupervisedPool",
    "Supervision",
    "backoff_schedule",
    "derive_deadline",
    "journal_status",
    "resumable_signals",
    "status_document",
]
