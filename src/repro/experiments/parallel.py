"""Run a grid of simulation points through one supervised executor.

The experiments in this package are grids of independent measurement
points (VDD values, core counts, thread counts, instruction classes).
Each point's *simulation* is a pure function of a
:class:`~repro.system.SimRequest` — the simulator has no randomness —
while each point's *measurement* consumes the bench's monitor-noise RNG
stream and mutates thermal state, so measurement order is
load-bearing.

The split this module implements therefore guarantees bit-identical
results to a serial run by construction:

1. build every point's ``SimRequest`` in the experiment's original
   iteration order;
2. simulate them with :func:`parallel_simulate` (outcomes come back
   in request order, whatever order workers finish in);
3. measure them in the parent process, in the original order: via
   :meth:`PitonSystem.measure_outcome` on the experiment's bench, or,
   for a sweep grid whose points each stand for a bench of their own,
   by settling each point in order and reading all of them through
   one fresh protocol (:func:`repro.experiments.sweep.sweep`).

Every grid runs through one executor, :func:`batched_simulate`, over
groups of grid indices: timing classes with ``batch=True`` (see
:mod:`repro.batch`), one point per group otherwise. It serves
journaled points back on resume, asks the surrogate tier, simulates
one representative per remaining group on a
:class:`~repro.resilience.SupervisedPool` (in-process for
``jobs <= 1``; crashed and hung workers are retried), copies each
outcome to its group's members, and journals each simulated group the
moment it completes: one entry under the group's batch key, which
serves every point of its class on resume. The measurement replay
still walks the full grid in order, so resumed and batched results
are bit-identical to serial ones.

The pool is :func:`shared_pool`'s, one per process, task function and
job count: its workers fork at the first pooled grid and serve every
later one, until :func:`close_shared_pools` or interpreter exit. A
grid whose ``map`` an exception or interrupt unwinds still takes the
workers down with it, and the next grid forks afresh.

The parent hashes each request template once (:mod:`repro.batch.key`);
per point it reads the clock into the key and settles the die on
floats, and a sweep grid reads every point's 128 samples in one array
pass per measurement.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.batch import BatchGroup, plan_batches
from repro.batch.key import batch_keys
from repro.obs.trace import Tracer
from repro.resilience import Supervision, SupervisedPool
from repro.system import SimOutcome, SimRequest, run_simulation
from repro.util.events import EventLedger

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.surrogate.dispatch import FidelityPolicy


#: :func:`shared_pool`'s pools by task function and job count. A
#: forked child starts with none: its parent's workers are not its
#: children, so it never drives or closes them.
_POOLS: dict[tuple[Callable, int], SupervisedPool] = {}
os.register_at_fork(after_in_child=_POOLS.clear)


def shared_pool(fn: Callable, jobs: int) -> SupervisedPool:
    """This process's pool for ``fn`` on ``jobs`` workers.

    Its workers fork at its first pooled ``map`` and wait between
    grids, each of which passes its own policy and tracer to ``map``.
    They end at :func:`close_shared_pools` or at interpreter exit,
    where ``multiprocessing`` terminates and joins daemonic children.
    """
    key = (fn, max(1, jobs))
    # setdefault: a pool forks nothing until its first map, so one
    # made by a racing thread and dropped here costs nothing.
    return _POOLS.get(key) or _POOLS.setdefault(key, SupervisedPool(*key))


def close_shared_pools() -> None:
    """Close every pool :func:`shared_pool` made in this process."""
    for pool in _POOLS.values():
        pool.close()
    _POOLS.clear()


def parallel_simulate(
    requests: Iterable[SimRequest],
    jobs: int = 1,
    tracer: Tracer | None = None,
    supervision: Supervision | None = None,
    batch: bool = False,
    fidelity: "FidelityPolicy | None" = None,
) -> Iterator[SimOutcome]:
    """Run every request, yielding outcomes in request order.

    The requests are materialized, grouped, and handed to
    :func:`batched_simulate`; the whole grid is simulated before the
    first outcome is yielded. ``jobs > 1`` fans the simulations across
    a :class:`~repro.resilience.SupervisedPool`.

    ``supervision`` configures failure handling: its
    :class:`~repro.resilience.RetryPolicy` bounds retries and
    deadlines, its journal (if any) checkpoints each simulated timing
    class and serves journaled points back on resume, and its tracer
    records the retry/timeout/resume counters. ``supervision=None``
    runs under the default policy with nothing journaled or counted.

    An enabled ``tracer`` receives each point's build/simulate wall
    times (stamped on the outcome by :func:`~repro.system.run_simulation`,
    so they survive the pickle back from pool workers) as outcomes are
    consumed, in request order. Telemetry reads finished outcomes
    only — it cannot perturb simulation results.

    ``batch=True`` groups the grid by timing class (see
    :mod:`repro.batch`): each class's representative runs once and
    its outcome is copied to every member, bit-identically — the
    simulator is a pure function of the request, and the batch key
    covers everything it reads. ``batch=False`` makes every point its
    own group.

    ``fidelity`` routes points through the two-tier dispatcher
    (:mod:`repro.surrogate`): points a calibrated profile can serve
    within tolerance come back as ``tier="fast"`` outcomes without a
    simulation; everything else — novel workloads, out-of-envelope
    clocks, checked runs — falls back to the simulator, with
    ``surrogate_hits``/``surrogate_fallbacks`` counted on the policy's
    tracer. ``fidelity=None`` (the default, and all of ``--tier sim``)
    is the cycle-level simulator for every point, and journaled
    *surrogate* points from an earlier ``auto``/``fast`` run are
    re-simulated rather than silently reused.
    """
    requests = list(requests)
    if batch:
        plan = plan_batches(requests)
        stats_tracer = tracer
        if stats_tracer is None and supervision is not None:
            stats_tracer = supervision.tracer
        if stats_tracer is not None and stats_tracer.enabled:
            stats_tracer.note("batch", plan.summary())
            stats_tracer.count("batch_groups", plan.n_groups)
            stats_tracer.count(
                "batch_points_coalesced", plan.points_coalesced
            )
            if plan.debatch_events:
                stats_tracer.count(
                    "batch_debatch_events", plan.debatch_events
                )
        groups = plan.groups
    else:
        groups = None
    outcomes = batched_simulate(
        requests,
        groups,
        jobs=jobs,
        supervision=supervision,
        fidelity=fidelity,
    )
    if tracer is None or not tracer.enabled:
        return outcomes
    return _record_points(outcomes, tracer)


def _simulate_stripped(request: SimRequest) -> SimOutcome:
    """Pool/worker entry point: simulate, drop the engine.

    Grid experiments read only ledgers and counters, and an engine
    does not travel back across the process boundary anyway.
    """
    outcome = run_simulation(request)
    outcome.engine = None
    return outcome


def replicate_outcome(outcome: SimOutcome, n: int) -> list[SimOutcome]:
    """Fan one group outcome out to ``n`` independent member outcomes.

    Member 0 is the representative's outcome itself; members 1..n-1
    are :func:`_member_copy`\\ s of it. Downstream measurement and
    checking treat each point as if it had been simulated alone.
    """
    return [outcome] + [_member_copy(outcome) for _ in range(1, n)]


def _member_copy(outcome: SimOutcome) -> SimOutcome:
    """A group member's own outcome: a fresh ledger holding the same
    counts and weights in the representative's event order (pricing
    sums floats in that order), its own result and checker-count
    copies, and zeroed wall times (its simulation cost was amortized
    into the representative's — telemetry reports wall-clock actually
    spent, not wall-clock saved)."""
    ledger = EventLedger()
    for name, value in outcome.ledger.counts.items():
        ledger.counts[name] = value
        ledger.weights[name] = outcome.ledger.weights[name]
    return replace(
        outcome,
        ledger=ledger,
        result=replace(outcome.result),
        engine=None,
        build_wall_s=0.0,
        sim_wall_s=0.0,
        check_counts=(
            dict(outcome.check_counts)
            if outcome.check_counts is not None
            else None
        ),
    )


def batched_simulate(
    requests: Sequence[SimRequest],
    groups: Sequence[BatchGroup] | None = None,
    jobs: int = 1,
    supervision: Supervision | None = None,
    fidelity: "FidelityPolicy | None" = None,
) -> Iterator[SimOutcome]:
    """Simulate a grid group-wise, yielding outcomes in grid order.

    ``groups`` partitions the grid indices into timing classes (a
    :func:`~repro.batch.plan_batches` plan); ``None`` makes every
    point its own group. Each member is served from the journal when
    possible, then the rest from the surrogate; the first
    still-missing member of each group is simulated on a
    :class:`~repro.resilience.SupervisedPool` under the supervision's
    retry/deadline policy, and its outcome is copied to the group's
    other missing members.

    The journal keys every entry by the group's batch key (with
    ``groups=None`` each point's own key is computed, only when a
    journal is attached). A point is served when the entry under its
    key verifies, and only when ``fidelity``'s tier accepts the
    outcome (no silent surrogate reuse under ``--tier sim``; counted
    as ``points_tier_rejected``). Points the journal serves one shared
    object get their own copies, as :func:`replicate_outcome` gives
    them. Each simulated group is appended the moment it completes,
    and the first of each group's surrogate-served points before any
    simulation starts, so an interrupt loses only in-flight work. The
    journal is retired once the consumer has received the final
    outcome; a consumer that abandons the grid mid-way — an interrupt
    unwinding through the measurement replay — leaves every completed
    entry on disk for ``--resume``.
    """
    from repro.surrogate.dispatch import accepts_cached_outcome

    supervision = (
        supervision if supervision is not None else Supervision()
    )
    journal = supervision.journal
    count = supervision.tracer.count
    if groups is None:
        members = [(index,) for index in range(len(requests))]
        keys = batch_keys(requests) if journal is not None else []
    else:
        members = [group.indices for group in groups]
        keys = [group.key for group in groups]

    outcomes: dict[int, SimOutcome] = {}
    #: ``(key, missing members)`` per group still needing its
    #: representative simulated (resume may have filled some or all
    #: members of a group from the journal, and the surrogate may
    #: have served others).
    todo: list[tuple[bytes, list[int]]] = []
    #: Grid points per class key, for the journal's meta.
    classes: dict[bytes, int] = {}
    # The last outcome served: a journal hands the same object to
    # consecutive points of one class, also across groups (an
    # unbatched grid has one group per point).
    source = None
    for position, group in enumerate(members):
        key = keys[position].to_bytes() if journal is not None else b""
        classes[key] = classes.get(key, 0) + len(group)
        missing: list[int] = []
        for index in group:
            cached = journal.get(index, key) if journal is not None else None
            if cached is not None and not accepts_cached_outcome(
                cached, fidelity
            ):
                count("points_tier_rejected")
                cached = None
            if cached is None:
                missing.append(index)
                continue
            outcomes[index] = (
                _member_copy(cached) if cached is source else cached
            )
            source = cached
            count("points_resumed")
        if missing:
            todo.append((key, missing))
    if journal is not None:
        journal.write_meta(
            experiment_id=supervision.experiment_id,
            points_expected=len(requests),
            classes=classes,
        )
    if fidelity is not None:
        # After every journal read: a point served here is journaled
        # under its class key and must not come back as resumed.
        for key, group in todo:
            served = {
                index: outcome
                for index in group
                if (outcome := fidelity.predict(requests[index])) is not None
            }
            if not served:
                continue
            outcomes.update(served)
            group[:] = [index for index in group if index not in served]
            if journal is not None:
                journal.append(key, list(served), next(iter(served.values())))
        todo = [entry for entry in todo if entry[1]]

    def on_result(todo_index: int, outcome: SimOutcome) -> None:
        key, group = todo[todo_index]
        if len(group) > 1:
            count("batch_points_replicated", len(group) - 1)
        outcomes.update(zip(group, replicate_outcome(outcome, len(group))))
        if journal is not None:
            journal.append(key, group, outcome)

    shared_pool(_simulate_stripped, jobs).map(
        [requests[group[0]] for _, group in todo],
        on_result=on_result,
        policy=supervision.policy,
        tracer=supervision.tracer,
    )

    def emit() -> Iterator[SimOutcome]:
        index = -1
        try:
            for index in range(len(requests)):
                # pop: each member's outcome is handed over exactly
                # once, freeing the grid as the consumer walks it.
                yield outcomes.pop(index)
        finally:
            # Runs on exhaustion *and* when the consumer drops the
            # iterator; the journal is done only if the final point
            # was delivered.
            if journal is not None and index == len(requests) - 1:
                journal.complete()

    return emit()


def _record_points(
    outcomes: Iterable[SimOutcome], tracer: Tracer
) -> Iterator[SimOutcome]:
    """Fold per-point wall times into the parent tracer on the fly."""
    for outcome in outcomes:
        tracer.add_span("build", outcome.build_wall_s)
        tracer.add_span("simulate", outcome.sim_wall_s)
        tracer.point(outcome.sim_wall_s)
        yield outcome
