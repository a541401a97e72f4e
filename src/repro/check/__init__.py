"""Runtime correctness tooling: invariant checkers, fault injection,
and the golden-run differential harness.

The paper's results are event-count-driven (instructions retired,
cache hits/misses, flit-hops, stall cycles), so the reproduction is
only as trustworthy as the simulator's internal bookkeeping. This
package turns that bookkeeping into an oracle:

* :class:`CheckSuite` — runtime invariant checkers wired through the
  simulator behind ``RunContext(checks=True)``. Zero-cost when off
  (every hook is an ``is not None`` test, like :data:`NULL_TRACER`);
  when on, the directory-MESI invariants, store-buffer FIFO/rollback
  consistency, per-router flit/credit conservation, energy-ledger
  conservation, and thermal RC boundedness are validated continuously
  during simulation and again at run end.
* :mod:`repro.check.faults` — a deterministic, seeded fault-injection
  harness (directory tag bit-flips, dropped/duplicated flits, stalled
  routers, DRAM timeouts) that exists to prove each checker actually
  fires; every scenario must be detected by at least one checker.
* :mod:`repro.check.golden` — the ``repro verify`` differential
  harness: quick-mode JSON snapshots of every registered experiment
  are committed under ``tests/goldens/`` and live runs are diffed
  against them with per-metric tolerances, and against the paper's
  published numbers in :mod:`repro.check.anchors`.
"""

from repro.check.faults import (
    FAULT_KINDS,
    GOVERNOR_FAULT_KINDS,
    FaultReport,
    inject_fault,
    inject_dram_timeout,
    inject_dropped_flit,
    inject_duplicated_flit,
    inject_governor_fault,
    inject_stalled_router,
    inject_tag_bitflip,
)
from repro.check.golden import (
    DEFAULT_GOLDEN_DIR,
    VerifyOutcome,
    VerifyReport,
    diff_documents,
    golden_path,
    strip_document,
    verify_experiments,
)
from repro.check.invariants import CheckError, CheckSuite

__all__ = [
    "CheckError",
    "CheckSuite",
    "DEFAULT_GOLDEN_DIR",
    "FAULT_KINDS",
    "GOVERNOR_FAULT_KINDS",
    "FaultReport",
    "VerifyOutcome",
    "VerifyReport",
    "diff_documents",
    "golden_path",
    "inject_dram_timeout",
    "inject_dropped_flit",
    "inject_duplicated_flit",
    "inject_fault",
    "inject_governor_fault",
    "inject_stalled_router",
    "inject_tag_bitflip",
    "strip_document",
    "verify_experiments",
]
