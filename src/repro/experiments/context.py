"""The uniform experiment-runner API.

Every experiment runner takes one :class:`RunContext` — run speed,
parallelism, persona override, telemetry sink, output format — instead
of the historical per-runner keyword grab-bag that forced ``cli.py``
to sniff signatures with :mod:`inspect`. The
:func:`experiment_runner` decorator adapts each module's
``run(ctx, ...)`` implementation to the public protocol: it accepts a
:class:`RunContext` (or ``None`` for the defaults), times the whole
run, and attaches a :class:`~repro.obs.manifest.RunManifest` to the
returned :class:`~repro.experiments.result.ExperimentResult`. The
pre-redesign keyword style (``run(quick=..., jobs=...)``, positional
``run(True)``) went through a deprecation cycle and is now rejected
with a :class:`TypeError` naming the replacement.

Telemetry is opt-in: the default context carries the disabled
:data:`~repro.obs.trace.NULL_TRACER`, whose hooks are no-ops, and the
manifest then records only the run configuration and total wall time.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.obs.manifest import build_manifest
from repro.obs.trace import NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.result import ExperimentResult
    from repro.resilience import Supervision
    from repro.silicon.variation import ChipPersona
    from repro.surrogate.dispatch import FidelityPolicy

#: Where ``repro run`` keeps checkpoint journals unless told otherwise.
DEFAULT_CHECKPOINT_DIR = "results/checkpoints"


def resolve_auto_jobs() -> int:
    """Worker count for ``jobs=0`` ("auto"): the CPUs this process may
    actually use (``os.process_cpu_count``, honoring affinity masks on
    Python 3.13+), falling back to ``os.cpu_count() or 1``."""
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        resolved = process_cpu_count()
        if resolved:
            return resolved
    return os.cpu_count() or 1


@dataclass(frozen=True)
class RunContext:
    """Everything a runner needs to know about *how* to run.

    ``persona=None`` means "the experiment's own default chip" (each
    figure pins the persona the paper measured it on); setting one
    re-characterizes the experiment on another die. ``tracer=None``
    means telemetry off. ``jobs=0`` means "auto": one worker per CPU
    this process may use (resolved at construction, so readers of
    ``ctx.jobs`` always see a concrete count).

    The resilience fields shape the supervised fan-out (see
    :mod:`repro.resilience`): ``retries`` bounds per-point pool
    re-attempts, ``deadline_s`` pins the per-point hang deadline
    (``None`` derives one from completed-point wall times), ``resume``
    loads journaled points from an interrupted campaign instead of
    re-simulating them, and ``checkpoint_dir`` is where journals live.
    None of them can change results — retried points are bit-identical
    reruns and resumed points are the journaled originals; they only
    change what it takes to produce them.
    """

    quick: bool = False
    jobs: int = 1
    persona: "ChipPersona | None" = None
    tracer: Tracer | None = None
    out_format: str = "table"  # "table" | "json"
    #: Run the :mod:`repro.check` invariant checkers during simulation.
    #: Off by default and zero-cost when off (like ``NULL_TRACER``);
    #: when on, results are bit-identical but a bookkeeping violation
    #: raises :class:`~repro.check.invariants.CheckError` immediately.
    checks: bool = False
    #: Coalesce grid points that share a timing class into one
    #: simulation each (see :mod:`repro.batch`). On by default:
    #: batched output is bit-identical to serial by construction, so
    #: the flag only changes wall-clock (``--no-batch`` exists for
    #: A/B timing and for falling back while diagnosing a suspected
    #: batching bug, not because results can differ).
    batch: bool = True
    #: Pool re-attempt budget per grid point (plus one final
    #: in-process attempt once the budget is spent).
    retries: int = 2
    #: Per-point hang deadline in seconds; ``None`` = adaptive.
    deadline_s: float | None = None
    #: Load journaled points from an interrupted run's checkpoint.
    resume: bool = False
    #: Journal location; ``None`` disables checkpoint journaling
    #: (unless ``resume`` asks for the default location).
    checkpoint_dir: str | None = None
    #: Fidelity tier (``--tier``): ``"sim"`` (default) runs every
    #: point on the cycle-level simulator — bit-identical to every
    #: release before the surrogate existed; ``"auto"`` serves points
    #: from the calibrated surrogate when its persisted error bound
    #: fits ``fidelity`` and falls back otherwise; ``"fast"`` serves
    #: every calibrated in-envelope point regardless of bound.
    tier: str = "sim"
    #: Worst acceptable surrogate error bound under ``tier="auto"``
    #: (``--fidelity``), as a relative error (0.05 = 5%).
    fidelity: float = 0.05
    #: Where calibrated workload profiles live; ``None`` = the default
    #: ``results/surrogate`` (see :mod:`repro.surrogate.store`).
    profile_dir: str | None = None

    def __post_init__(self) -> None:
        if self.jobs == 0:
            object.__setattr__(self, "jobs", resolve_auto_jobs())
        if self.jobs < 1:
            raise ValueError(
                f"jobs must be >= 1 (or 0 for auto), got {self.jobs}"
            )
        if self.out_format not in ("table", "json"):
            raise ValueError(
                f"out_format must be 'table' or 'json', "
                f"got {self.out_format!r}"
            )
        if self.retries < 0:
            raise ValueError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )
        if self.tier not in ("sim", "auto", "fast"):
            raise ValueError(
                f"tier must be one of 'sim', 'auto', 'fast', "
                f"got {self.tier!r}"
            )
        if self.fidelity <= 0:
            raise ValueError(
                f"fidelity tolerance must be positive, "
                f"got {self.fidelity}"
            )

    @property
    def trace(self) -> Tracer:
        """The telemetry sink, never ``None`` (disabled -> no-op)."""
        return self.tracer if self.tracer is not None else NULL_TRACER

    def resolve_persona(self, default: "ChipPersona") -> "ChipPersona":
        """The persona override, or the experiment's own default."""
        return self.persona if self.persona is not None else default

    def supervision(self, experiment_id: str) -> "Supervision | None":
        """The supervised-execution config this context implies.

        ``None`` — the common library default (serial, no resume, no
        checkpoint dir) — runs :func:`~repro.experiments.parallel.
        parallel_simulate` under the default policy with no journal
        and no counters. Anything that fans out, resumes, or journals
        gets a :class:`~repro.resilience.Supervision` carrying the
        retry policy, the (possibly resumed) checkpoint journal, and
        this context's tracer for the retry/resume counters.
        """
        wants_journal = (
            self.checkpoint_dir is not None or self.resume
        )
        if self.jobs <= 1 and not wants_journal:
            return None
        from repro.resilience import (
            CheckpointJournal,
            RetryPolicy,
            Supervision,
        )

        journal = None
        if wants_journal:
            root = Path(self.checkpoint_dir or DEFAULT_CHECKPOINT_DIR)
            journal = CheckpointJournal(
                root / experiment_id, resume=self.resume
            )
        return Supervision(
            policy=RetryPolicy(
                retries=self.retries, deadline_s=self.deadline_s
            ),
            journal=journal,
            tracer=self.trace,
            experiment_id=experiment_id,
        )

    def fidelity_policy(self) -> "FidelityPolicy | None":
        """The two-tier dispatch policy this context implies.

        ``None`` for ``tier="sim"`` — no surrogate code runs at all,
        and journaled surrogate points are rejected on resume (the
        executors treat a missing policy as "cycle-level required").
        Runners pass this to :func:`~repro.experiments.parallel.
        parallel_simulate` alongside :meth:`supervision`.
        """
        if self.tier == "sim":
            return None
        from repro.surrogate import (
            DEFAULT_PROFILE_DIR,
            FidelityPolicy,
            ProfileStore,
        )

        return FidelityPolicy(
            store=ProfileStore(
                self.profile_dir or DEFAULT_PROFILE_DIR
            ),
            tier=self.tier,
            tolerance=self.fidelity,
            tracer=self.trace,
        )


def experiment_runner(
    fn: Callable[..., "ExperimentResult"],
) -> Callable[..., "ExperimentResult"]:
    """Adapt ``run(ctx, **extras)`` to the public runner protocol.

    The wrapped callable accepts one :class:`RunContext` (or ``None``
    for the defaults)::

        run(RunContext(quick=True, jobs=4))

    Module-specific extras (``cores=``, ``seed=``, ``benchmark=`` ...)
    pass through unchanged. The removed legacy style
    (``run(quick=..., jobs=...)``, positional ``run(True)``) raises a
    :class:`TypeError` spelling out the replacement.
    """

    @functools.wraps(fn)
    def wrapper(
        ctx: RunContext | None = None,
        **extras: object,
    ) -> "ExperimentResult":
        legacy = {"quick", "jobs", "persona", "tracer"} & set(extras)
        if legacy or isinstance(ctx, bool):
            bad = (
                f"keyword(s) {sorted(legacy)}"
                if legacy
                else f"positional {ctx!r}"
            )
            raise TypeError(
                f"{fn.__module__}.run() no longer accepts the legacy "
                f"{bad}; pass a repro.experiments.RunContext instead, "
                "e.g. run(RunContext(quick=True, jobs=4))"
            )
        if ctx is None:
            ctx = RunContext()
        elif not isinstance(ctx, RunContext):
            raise TypeError(
                f"expected RunContext, got {type(ctx).__name__}"
            )

        trace = ctx.trace
        start = time.perf_counter()
        with trace.span("experiment"):
            result = fn(ctx, **extras)
        result.manifest = build_manifest(
            result.experiment_id,
            ctx,
            trace,
            wall_s_total=time.perf_counter() - start,
        )
        return result

    wrapper.__wrapped_runner__ = fn  # type: ignore[attr-defined]
    return wrapper
