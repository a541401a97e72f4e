"""A supervised process pool that survives crashed and hung workers.

``multiprocessing.Pool`` treats a dead worker as a fatal, grid-wide
event: ``Pool.map`` either hangs or raises away the entire campaign.
:class:`SupervisedPool` replaces it for the experiment fan-out with a
small supervisor the parent process runs itself:

* each worker owns a **dedicated task queue**, so the supervisor
  always knows exactly which point a worker holds — a worker found
  dead implicates one specific point, never "somewhere in the shared
  queue";
* workers send a **heartbeat** the moment they begin a point; the
  supervisor measures the point's age from that heartbeat against the
  :class:`~repro.resilience.policy.RetryPolicy` deadline (pinned via
  ``--deadline``, or derived from completed-point wall times) and
  terminates workers that blow it;
* failed or timed-out points **retry with exponential backoff** under
  a bounded budget, the pool is kept at strength with replacement
  workers, and when the budget is spent the point gets one final
  in-process serial attempt — a point that poisons workers degrades
  the grid to serial speed for that one point instead of killing the
  run; only a point that fails in-process too raises
  :class:`PointFailure`;
* every completed point is reported through ``on_result`` *as it
  completes*, which is where the checkpoint journal appends — an
  interrupt at any moment loses only in-flight points.

Retries are invisible in results by construction: the simulator is a
pure function of its request, so attempt N is bit-identical to attempt
0. They are visible only as counters on the run manifest
(``retries``, ``timeouts``, ``worker_crashes``, ...).
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.obs.trace import NULL_TRACER, Tracer
from repro.resilience.checkpoint import CheckpointJournal
from repro.resilience.policy import RetryPolicy

#: How long the supervisor blocks on the result queue per loop pass.
_POLL_S = 0.05
#: Grace period between SIGTERM and SIGKILL for a hung worker.
_TERM_GRACE_S = 0.5


class PointFailure(RuntimeError):
    """One grid point failed every pool attempt *and* the in-process
    fallback — a real, deterministic error, not a flaky worker."""

    def __init__(self, index: int, attempts: int, detail: str):
        super().__init__(
            f"grid point {index} failed after {attempts} attempt(s): "
            f"{detail}"
        )
        self.index = index
        self.attempts = attempts
        self.detail = detail


@dataclass
class Supervision:
    """Everything the fan-out layer needs to run a grid supervised."""

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    journal: CheckpointJournal | None = None
    tracer: Tracer = NULL_TRACER
    experiment_id: str | None = None


def _worker_main(
    worker_id: int,
    fn: Callable[[object], object],
    task_q: "multiprocessing.Queue",
    result_q: "multiprocessing.Queue",
    forward_events: bool = False,
) -> None:
    """Worker loop: heartbeat, run, report; repeat until sentinel.

    SIGINT is ignored (Ctrl-C lands on the whole foreground process
    group; teardown is the supervisor's decision, delivered as
    SIGTERM), and SIGTERM is reset to its default so ``terminate()``
    kills even a worker wedged mid-point.

    With ``forward_events`` the task function is called as
    ``fn(payload, emit)``; anything it passes to ``emit`` (small
    JSON-able dicts, in practice tracer events) is relayed to the
    supervisor as an ``("event", ...)`` message while the point is
    still running — this is how the serve tier streams live telemetry
    out of an isolated worker process.

    The worker exits as soon as its supervising process dies, even in
    the middle of a point: nobody is left to send it the sentinel or
    to read its results (a SIGKILLed daemon would otherwise orphan it).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    threading.Thread(
        target=_exit_with_parent, name="parent-watch", daemon=True
    ).start()
    from repro.check.faults import trigger_worker_fault

    while True:
        item = task_q.get()
        if item is None:
            return
        index, attempt, payload = item
        result_q.put(("start", worker_id, index, attempt, time.time()))
        try:
            trigger_worker_fault(index, attempt)
            if forward_events:

                def emit(event: object, _i=index, _a=attempt) -> None:
                    result_q.put(("event", worker_id, _i, _a, event))

                result = fn(payload, emit)
            else:
                result = fn(payload)
        except BaseException:
            result_q.put(
                ("error", worker_id, index, attempt, traceback.format_exc())
            )
        else:
            result_q.put(("done", worker_id, index, attempt, result))


def _exit_with_parent() -> None:
    """Wait on the parent process's sentinel; exit when it dies."""
    # Imported here: only worker processes need it.
    from multiprocessing.connection import wait

    parent = multiprocessing.parent_process()
    if parent is None:
        return
    wait([parent.sentinel])
    os._exit(1)


@dataclass
class _Worker:
    """Supervisor-side view of one worker process."""

    proc: multiprocessing.Process
    task_q: "multiprocessing.Queue"
    #: (index, attempt) the worker currently holds, or None when idle.
    assigned: tuple[int, int] | None = None
    #: When the task was handed over, then refined by its heartbeat.
    assigned_at: float = 0.0
    started_at: float | None = None

    @property
    def age_basis(self) -> float:
        """The instant this worker's current point is aged from."""
        return (
            self.started_at
            if self.started_at is not None
            else self.assigned_at
        )


class SupervisedPool:
    """Run ``fn`` over tasks on supervised workers; results in order."""

    def __init__(
        self,
        fn: Callable[[object], object],
        jobs: int,
        policy: RetryPolicy | None = None,
        tracer: Tracer | None = None,
        *,
        isolate: bool = False,
    ):
        """``isolate=True`` is the service's mode. Every task runs in
        a worker process, even a single one (a segfault must land in a
        child); workers are non-daemonic, so a served sweep can fan out
        its own inner pool; the task function is called as
        ``fn(payload, emit)`` (see :func:`_worker_main`), feeding
        :meth:`map`'s ``on_event``; and a point that exhausts its retry
        budget raises :class:`PointFailure` instead of re-running in
        the supervising process, which must outlive the task.
        """
        self.fn = fn
        self.jobs = max(1, jobs)
        self.policy = policy if policy is not None else RetryPolicy()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.isolate = isolate
        self._next_worker_id = 0
        self._workers: dict[int, _Worker] = {}
        self._result_q: "multiprocessing.Queue | None" = None
        # Per-map state (set up by map(), used by the loop phases).
        self._tasks: Sequence[object] = ()
        self._results: dict[int, object] = {}
        self._pending: list[tuple[float, int, int]] = []
        self._durations: list[float] = []
        self._on_result: Callable[[int, object], None] | None = None
        self._on_event: Callable[[int, object], None] | None = None

    # -------------------------------------------------------------------- map
    def map(
        self,
        tasks: Sequence[object],
        on_result: Callable[[int, object], None] | None = None,
        on_event: Callable[[int, object], None] | None = None,
    ) -> list[object]:
        """``[fn(t) for t in tasks]`` on supervised workers.

        ``on_result(index, result)`` fires as each point completes
        (workers finish out of submission order); the returned list is
        always in submission order. ``on_event(index, event)`` (with
        ``isolate``) fires for every event the running task
        emits, while it is still running — events from an attempt that
        is later retried are forwarded too, so consumers see honest
        per-attempt telemetry, not a deduplicated fiction.
        """
        if not tasks:
            return []
        if not self.isolate and (self.jobs <= 1 or len(tasks) == 1):
            results = []
            for index, task in enumerate(tasks):
                result = self.fn(task)
                self.tracer.count("points_simulated")
                if on_result is not None:
                    on_result(index, result)
                results.append(result)
            return results

        self._tasks = tasks
        self._results = {}
        #: (ready_at, point index, attempt number) awaiting a worker.
        self._pending = [(0.0, index, 0) for index in range(len(tasks))]
        self._durations = []
        self._on_result = on_result
        self._on_event = on_event
        self._result_q = multiprocessing.Queue()
        try:
            self._maintain_strength()
            while len(self._results) < len(tasks):
                self._assign_ready()
                self._drain_results()
                self._reap_crashes()
                self._enforce_deadline()
                self._maintain_strength()
            return [self._results[i] for i in range(len(tasks))]
        finally:
            self._teardown()

    # ---------------------------------------------------------------- workers
    def _spawn_worker(self) -> None:
        task_q: "multiprocessing.Queue" = multiprocessing.Queue()
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        proc = multiprocessing.Process(
            target=_worker_main,
            args=(
                worker_id,
                self.fn,
                task_q,
                self._result_q,
                self.isolate,
            ),
            daemon=not self.isolate,
            name=f"repro-supervised-{worker_id}",
        )
        proc.start()
        self._workers[worker_id] = _Worker(proc=proc, task_q=task_q)

    def _dismiss_worker(self, worker_id: int, kill: bool = False) -> None:
        worker = self._workers.pop(worker_id)
        if kill and worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(_TERM_GRACE_S)
            if worker.proc.is_alive():  # wedged past SIGTERM
                worker.proc.kill()
        worker.proc.join()
        worker.task_q.close()
        worker.task_q.cancel_join_thread()

    def _maintain_strength(self) -> None:
        """Keep one worker per outstanding point, capped at ``jobs``;
        each new worker gets a ready point before the next one forks."""
        outstanding = len(self._tasks) - len(self._results)
        while len(self._workers) < min(self.jobs, outstanding):
            self._spawn_worker()
            self._assign_ready()

    def _teardown(self) -> None:
        """Terminate and join every worker; drop the queues.

        Every idle worker gets its sentinel before any is joined, so
        they exit side by side; busy ones are terminated. Runs on
        success, on grid failure, and on interrupt — the regression
        the bare-``Pool`` path had (leaked workers after a
        ``KeyboardInterrupt`` mid-``map``) cannot recur by design.
        """
        idle = [
            worker
            for worker in self._workers.values()
            if worker.proc.is_alive() and worker.assigned is None
        ]
        for worker in idle:
            try:
                worker.task_q.put(None)
            except (ValueError, OSError):  # pragma: no cover
                pass
        for worker in idle:
            worker.proc.join(_TERM_GRACE_S)
        for worker_id in list(self._workers):
            self._dismiss_worker(worker_id, kill=True)
        if self._result_q is not None:
            self._result_q.close()
            self._result_q.cancel_join_thread()
            self._result_q = None

    # ------------------------------------------------------------ loop phases
    def _assign_ready(self) -> None:
        idle = [w for w in self._workers.values() if w.assigned is None]
        if not idle:
            return
        now = time.monotonic()
        ready = sorted(p for p in self._pending if p[0] <= now)
        for worker, entry in zip(idle, ready):
            self._pending.remove(entry)
            _, index, attempt = entry
            worker.assigned = (index, attempt)
            worker.assigned_at = time.monotonic()
            worker.started_at = None
            worker.task_q.put((index, attempt, self._tasks[index]))

    def _drain_results(self) -> None:
        """Handle every queued worker message; block briefly for one."""
        timeout = _POLL_S
        while True:
            try:
                msg = self._result_q.get(timeout=timeout)
            except queue_mod.Empty:
                return
            timeout = 0.0  # drain the rest without blocking
            kind, worker_id, index, attempt, body = msg
            worker = self._workers.get(worker_id)
            held = worker is not None and worker.assigned == (
                index,
                attempt,
            )
            if kind == "start":
                if held:
                    worker.started_at = time.monotonic()
                continue
            if kind == "event":
                # Live telemetry from a running task; stale attempts
                # (already failed over) are silenced.
                if held and self._on_event is not None:
                    self._on_event(index, body)
                continue
            if held:
                self._durations.append(
                    time.monotonic() - worker.age_basis
                )
                worker.assigned = None
                worker.started_at = None
                # Its next point goes out before the bookkeeping below
                # (the journal append, or queueing a retry), so the
                # worker simulates while the supervisor writes.
                self._assign_ready()
            if kind == "done":
                self._complete(index, body)
            else:  # "error"
                self._handle_failure(
                    index, attempt, reason="error", detail=body
                )

    def _reap_crashes(self) -> None:
        for worker_id, worker in list(self._workers.items()):
            if worker.proc.is_alive():
                continue
            assigned = worker.assigned
            exitcode = worker.proc.exitcode
            self._dismiss_worker(worker_id)
            if assigned is None:
                continue  # idle death; _maintain_strength replaces it
            self.tracer.count("worker_crashes")
            index, attempt = assigned
            self._handle_failure(
                index,
                attempt,
                reason="crash",
                detail=(
                    f"worker exited with code {exitcode} while "
                    f"simulating point {index}"
                ),
            )

    def _enforce_deadline(self) -> None:
        deadline = self.policy.deadline_for(self._durations)
        if deadline is None:
            return
        now = time.monotonic()
        for worker_id, worker in list(self._workers.items()):
            if worker.assigned is None:
                continue
            if now - worker.age_basis <= deadline:
                continue
            self.tracer.count("timeouts")
            index, attempt = worker.assigned
            worker.assigned = None  # don't double-fail via crash reap
            self._dismiss_worker(worker_id, kill=True)
            self._handle_failure(
                index,
                attempt,
                reason="timeout",
                detail=(
                    f"point {index} exceeded the {deadline:.1f}s "
                    "deadline"
                ),
            )

    # ----------------------------------------------------- completion/failure
    def _complete(self, index: int, result: object) -> None:
        if index in self._results:  # stale duplicate; results identical
            return
        self._results[index] = result
        self.tracer.count("points_simulated")
        if self._on_result is not None:
            self._on_result(index, result)

    def _handle_failure(
        self, index: int, attempt: int, reason: str, detail: str
    ) -> None:
        if index in self._results:  # a concurrent attempt finished
            return
        next_attempt = attempt + 1
        if next_attempt <= self.policy.retries:
            self.tracer.count("retries")
            ready_at = time.monotonic() + self.policy.backoff_s(
                next_attempt
            )
            self._pending.append((ready_at, index, next_attempt))
            return
        if self.isolate:
            # The supervisor must outlive the task: spent budget is a
            # hard failure, never an in-process re-run.
            raise PointFailure(
                index,
                next_attempt,
                f"last failure ({reason}): {detail}",
            )
        # Budget spent: one final serial attempt in this process. A
        # deterministic failure reproduces here and surfaces as a real
        # error, with the last worker-side detail attached.
        self.tracer.count("fallback_in_process")
        try:
            result = self.fn(self._tasks[index])
        except Exception as exc:
            raise PointFailure(
                index,
                next_attempt + 1,
                f"last failure ({reason}): {detail}; in-process "
                f"fallback raised {exc!r}",
            ) from exc
        self._complete(index, result)
