"""Batch planning: which grid points can share one simulation.

Sweep-style experiments (V/f curves, EPI tables, scaling studies) are
grids whose points often share the *same* architectural simulation:
the simulator is a pure function of a
:class:`~repro.system.SimRequest`, chip personas and rail voltages
never appear in the request at all, and the core clock reaches the
simulation only through the off-chip path — which a workload with no
memory instructions can never invoke. Re-simulating such points once
per grid cell redoes identical fetch/decode/dispatch work N times just
to accumulate the same event counts under different energy weights.

This package decides which points coalesce:

* :mod:`repro.batch.key` — :func:`batch_key` folds a request down to
  its *timing class*: everything the simulation actually reads. Two
  requests with equal keys provably produce bit-identical outcomes.
* :mod:`repro.batch.plan` — :func:`plan_batches` groups a grid by
  batch key, with de-batch accounting (points that share a workload
  but differ in timing fall back to their own singleton groups —
  never wrong answers, only missed coalescing).

The grid executor (:func:`repro.experiments.parallel.batched_simulate`)
simulates one representative per group and copies its outcome to every
member. The determinism machinery elsewhere in the repo (goldens,
``repro verify``, checks-on bit-identity, parallel-determinism tests)
is the safety net: batched output is bit-identical to serial by
construction, and the tests prove it stays that way.
"""

from repro.batch.key import (
    BatchKey,
    affinity_key,
    batch_key,
    workload_can_touch_memory,
)
from repro.batch.plan import BatchGroup, BatchPlan, plan_batches

__all__ = [
    "BatchGroup",
    "BatchKey",
    "BatchPlan",
    "affinity_key",
    "batch_key",
    "plan_batches",
    "workload_can_touch_memory",
]
