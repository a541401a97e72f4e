"""A supervised process pool that survives crashed and hung workers.

``multiprocessing.Pool`` treats a dead worker as a fatal, grid-wide
event: ``Pool.map`` either hangs or raises away the entire campaign.
:class:`SupervisedPool` replaces it for the experiment fan-out with a
small supervisor the parent process runs itself:

* each worker owns a **dedicated task queue**, so the supervisor
  always knows exactly which point a worker holds — a worker found
  dead implicates one specific point, never "somewhere in the shared
  queue";
* each worker also reports on a **result pipe of its own**: a worker
  that dies mid-message tears only its own pipe, which is dropped with
  it, and no lock it held can stall another worker's messages;
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

Workers outlive a completed :meth:`SupervisedPool.map`: they fork at
the first pooled ``map`` and then wait on their task queues for the
next one, until :meth:`SupervisedPool.close`, the end of a ``with``
block, an exception or interrupt unwinding through ``map``, or the
death of the process that drives them. A ``map`` brings its own retry
policy and tracer, and the worker fault armed when it begins travels
with each of its points.

Retries are invisible in results by construction: the simulator is a
pure function of its request, so attempt N is bit-identical to attempt
0. They are visible only as counters on the run manifest
(``retries``, ``timeouts``, ``worker_crashes``, ...).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import Callable, Sequence

from repro.obs.trace import NULL_TRACER, Tracer
from repro.resilience.checkpoint import CheckpointJournal
from repro.resilience.policy import RetryPolicy

#: How long the supervisor blocks on the result pipes per loop pass.
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
    fn: Callable[[object], object],
    task_q: "multiprocessing.Queue",
    results: Connection,
    forward_events: bool = False,
) -> None:
    """Worker loop: heartbeat, run, report; repeat until sentinel.

    Each task message is ``(index, attempt, payload, fault)``, and each
    report on ``results`` is ``(kind, index, attempt, body)``. The
    worker fault the supervisor read when its ``map`` began rides with
    every point (see :func:`~repro.check.faults.trigger_worker_fault`),
    so a fault armed after this worker forked still reaches it.

    SIGINT is ignored (Ctrl-C lands on the whole foreground process
    group; teardown is the supervisor's decision, delivered as
    SIGTERM), and SIGTERM is reset to its default so ``terminate()``
    kills even a worker wedged mid-point.

    With ``forward_events`` the task function is called as
    ``fn(payload, emit)``; anything it passes to ``emit`` (small
    JSON-able dicts, in practice tracer events) is relayed to the
    supervisor as an ``"event"`` message while the point is
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
        index, attempt, payload, fault = item
        results.send(("start", index, attempt, None))
        try:
            trigger_worker_fault(fault, index, attempt)
            if forward_events:

                def emit(event: object, _i=index, _a=attempt) -> None:
                    results.send(("event", _i, _a, event))

                result = fn(payload, emit)
            else:
                result = fn(payload)
        except BaseException:
            results.send(("error", index, attempt, traceback.format_exc()))
        else:
            results.send(("done", index, attempt, result))


def _exit_with_parent() -> None:
    """Wait on the parent process's sentinel; exit when it dies."""
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
    #: The read end of the worker's result pipe, closed once it hangs up.
    results: Connection
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
    """Run ``fn`` over tasks on supervised workers; results in order.

    The workers a pooled :meth:`map` forks wait for the next ``map``
    once it returns. :meth:`close` (or leaving a ``with`` block)
    dismisses them, as does an exception or interrupt unwinding
    through ``map``. Only the process that made the pool drives it,
    and its ``map`` calls never overlap: a second thread's ``map``
    waits for the first to return.
    """

    def __init__(
        self,
        fn: Callable[[object], object],
        jobs: int,
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
        self.isolate = isolate
        self._lock = threading.Lock()
        self._next_worker_id = 0
        self._workers: dict[int, _Worker] = {}
        # Per-map state (set up by map(), used by the loop phases).
        self._policy = RetryPolicy()
        self._tracer = NULL_TRACER
        self._fault: tuple[str, int] | None = None
        self._tasks: Sequence[object] = ()
        self._results: dict[int, object] = {}
        self._pending: list[tuple[float, int, int]] = []
        self._durations: list[float] = []
        self._on_result: Callable[[int, object], None] | None = None
        self._on_event: Callable[[int, object], None] | None = None

    def __enter__(self) -> "SupervisedPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------------- map
    def map(
        self,
        tasks: Sequence[object],
        on_result: Callable[[int, object], None] | None = None,
        on_event: Callable[[int, object], None] | None = None,
        *,
        policy: RetryPolicy = RetryPolicy(),
        tracer: Tracer = NULL_TRACER,
    ) -> list[object]:
        """``[fn(t) for t in tasks]`` on supervised workers.

        ``on_result(index, result)`` fires as each point completes
        (workers finish out of submission order); the returned list is
        always in submission order. ``on_event(index, event)`` (with
        ``isolate``) fires for every event the running task
        emits, while it is still running — events from an attempt that
        is later retried are forwarded too, so consumers see honest
        per-attempt telemetry, not a deduplicated fiction.

        ``policy`` and ``tracer`` are this grid's: its deadline and
        retry budget, and where its counters land. The worker fault
        armed now (:func:`~repro.check.faults.active_worker_fault`) is
        sent with each of its points.
        """
        if not tasks:
            return []
        if not self.isolate and (self.jobs <= 1 or len(tasks) == 1):
            results = []
            for index, task in enumerate(tasks):
                result = self.fn(task)
                tracer.count("points_simulated")
                if on_result is not None:
                    on_result(index, result)
                results.append(result)
            return results

        from repro.check.faults import active_worker_fault

        with self._lock:
            self._policy = policy
            self._tracer = tracer
            self._fault = active_worker_fault()
            self._tasks = tasks
            self._results = {}
            #: (ready_at, point index, attempt number) awaiting a worker.
            self._pending = [(0.0, index, 0) for index in range(len(tasks))]
            self._durations = []
            self._on_result = on_result
            self._on_event = on_event
            try:
                # Workers that died idle since the last map held no
                # point: they are replaced, and nothing is counted.
                self._reap_crashes()
                self._maintain_strength()
                while len(self._results) < len(tasks):
                    self._assign_ready()
                    self._drain_results()
                    self._reap_crashes()
                    self._enforce_deadline()
                    self._maintain_strength()
                return [self._results[i] for i in range(len(tasks))]
            except BaseException:
                self._teardown()
                raise
            finally:
                # The pool outlives the grid; it keeps no reference to it.
                self._tasks = ()
                self._results = {}
                self._on_result = self._on_event = None

    def close(self) -> None:
        """Dismiss every worker; a later :meth:`map` forks afresh."""
        with self._lock:
            self._teardown()

    # ---------------------------------------------------------------- workers
    def _spawn_worker(self) -> None:
        task_q: "multiprocessing.Queue" = multiprocessing.Queue()
        results, sender = multiprocessing.Pipe(duplex=False)
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        proc = multiprocessing.Process(
            target=_worker_main,
            args=(self.fn, task_q, sender, self.isolate),
            daemon=not self.isolate,
            name=f"repro-supervised-{worker_id}",
        )
        proc.start()
        # The worker holds the only write end, so its death hangs up
        # the pipe.
        sender.close()
        self._workers[worker_id] = _Worker(
            proc=proc, task_q=task_q, results=results
        )

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
        worker.results.close()

    def _maintain_strength(self) -> None:
        """Keep one worker per outstanding point, capped at ``jobs``;
        each new worker gets a ready point before the next one forks."""
        outstanding = len(self._tasks) - len(self._results)
        while len(self._workers) < min(self.jobs, outstanding):
            self._spawn_worker()
            self._assign_ready()

    def _teardown(self) -> None:
        """Terminate and join every worker; drop their queues and pipes.

        Every idle worker gets its sentinel before any is joined, so
        they exit side by side; busy ones are terminated. Runs from
        :meth:`close`, and from :meth:`map` when an exception or
        interrupt unwinds through it — the regression the bare-``Pool``
        path had (leaked workers after a ``KeyboardInterrupt``
        mid-``map``) cannot recur by design.
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
            worker.task_q.put(
                (index, attempt, self._tasks[index], self._fault)
            )

    def _drain_results(self) -> None:
        """Handle every message the workers have sent; block briefly
        for one.

        A worker reports only on the point it holds, and a dismissed
        worker's pipe is closed with it, so no message outlives the
        point it names.
        """
        timeout = _POLL_S
        while True:
            workers = {
                worker.results: worker
                for worker in self._workers.values()
                if not worker.results.closed
            }
            ready = wait(list(workers), timeout)
            if not ready:
                return
            timeout = 0.0  # drain the rest without blocking
            for pipe in ready:
                worker = workers[pipe]
                try:
                    kind, index, attempt, body = pipe.recv()
                except (EOFError, OSError):
                    # The worker died, perhaps mid-message;
                    # _reap_crashes accounts for its point.
                    pipe.close()
                    continue
                if kind == "start":
                    worker.started_at = time.monotonic()
                    continue
                if kind == "event":
                    # Live telemetry from a running task.
                    if self._on_event is not None:
                        self._on_event(index, body)
                    continue
                self._durations.append(time.monotonic() - worker.age_basis)
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
            self._tracer.count("worker_crashes")
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
        deadline = self._policy.deadline_for(self._durations)
        if deadline is None:
            return
        now = time.monotonic()
        for worker_id, worker in list(self._workers.items()):
            if worker.assigned is None:
                continue
            if now - worker.age_basis <= deadline:
                continue
            self._tracer.count("timeouts")
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
        self._results[index] = result
        self._tracer.count("points_simulated")
        if self._on_result is not None:
            self._on_result(index, result)

    def _handle_failure(
        self, index: int, attempt: int, reason: str, detail: str
    ) -> None:
        next_attempt = attempt + 1
        if next_attempt <= self._policy.retries:
            self._tracer.count("retries")
            ready_at = time.monotonic() + self._policy.backoff_s(
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
        self._tracer.count("fallback_in_process")
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
