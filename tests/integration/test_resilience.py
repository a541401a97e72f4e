"""Fault tolerance end to end: crashed and hung workers must be
invisible in results, interrupted campaigns must resume bit-identical,
and damaged checkpoints must cost exactly the damaged points.

The simulator is a pure function of its request, so every recovery
path (retry, in-process fallback, journal replay) reproduces the clean
run exactly — these tests assert that, not statistical closeness.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.batch import batch_key
from repro.check.faults import (
    WORKER_FAULT_ENV,
    arm_worker_fault,
    disarm_worker_fault,
    inject_checkpoint_truncation,
)
from repro.experiments import RunContext
from repro.experiments.parallel import (
    _simulate_stripped,
    close_shared_pools,
    parallel_simulate,
    shared_pool,
)
from repro.obs.trace import Tracer
from repro.resilience import (
    EXIT_RESUMABLE,
    CheckpointJournal,
    PointFailure,
    RetryPolicy,
    SupervisedPool,
    Supervision,
    journal_status,
)
from repro.silicon.variation import CHIP3
from repro.sweepspec import SweepSpec, run_sweepspec
from repro.system import PitonSystem
from repro.workloads.microbench import hist_workload, microbench_core_ids

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _no_armed_fault(monkeypatch):
    monkeypatch.delenv(WORKER_FAULT_ENV, raising=False)


def _grid_requests(count: int = 4):
    """Small multi-tile coherent points (shared-bucket Hist traffic)."""
    system = PitonSystem.default(persona=CHIP3, seed=13)
    return [
        system.sim_request(
            hist_workload(microbench_core_ids(tiles), 1).tiles,
            warmup_cycles=800,
            window_cycles=1_200,
        )
        for tiles in range(2, 2 + count)
    ]


def _key(request) -> bytes:
    return batch_key(request).to_bytes()


def _ledgers(outcomes):
    return [
        (o.ledger.as_dict(), o.result.cycles, o.result.instructions)
        for o in outcomes
    ]


# --------------------------------------------------------- worker faults
def test_worker_crash_recovers_bit_identical(monkeypatch):
    serial = _ledgers(parallel_simulate(_grid_requests(), jobs=1))

    monkeypatch.setenv(WORKER_FAULT_ENV, "worker_crash:1")
    tracer = Tracer()
    survived = _ledgers(
        parallel_simulate(
            _grid_requests(),
            jobs=2,
            supervision=Supervision(tracer=tracer),
        )
    )
    assert survived == serial
    assert tracer.resilience["worker_crashes"] >= 1
    assert tracer.resilience["retries"] >= 1
    # The retry ran on a worker, not via the serial escape hatch.
    assert "fallback_in_process" not in tracer.resilience


def test_worker_hang_killed_by_deadline(monkeypatch):
    serial = _ledgers(parallel_simulate(_grid_requests(), jobs=1))

    monkeypatch.setenv(WORKER_FAULT_ENV, "worker_hang:0")
    tracer = Tracer()
    survived = _ledgers(
        parallel_simulate(
            _grid_requests(),
            jobs=2,
            supervision=Supervision(
                policy=RetryPolicy(deadline_s=3.0, backoff_base_s=0.05),
                tracer=tracer,
            ),
        )
    )
    assert survived == serial
    assert tracer.resilience["timeouts"] >= 1
    assert tracer.resilience["retries"] >= 1


def test_deterministic_failure_raises_point_failure():
    pool = SupervisedPool(_always_failing, jobs=2)
    with pytest.raises(PointFailure, match="grid point"):
        pool.map(
            ["task-a", "task-b"],
            policy=RetryPolicy(retries=1, backoff_base_s=0.01),
        )


def _always_failing(task):
    raise ValueError(f"poisoned point: {task}")


# ------------------------------------------------------ checkpoint/resume
def test_resume_skips_journaled_points(tmp_path):
    requests = _grid_requests()
    clean = _ledgers(parallel_simulate(requests, jobs=1))

    # Fake an interrupted campaign: the first 2 of 4 points journaled,
    # exactly as an on_result append would have left them.
    serial_outcomes = list(parallel_simulate(_grid_requests(), jobs=1))
    journal = CheckpointJournal(tmp_path / "grid")
    for index in range(2):
        journal.append(
            _key(requests[index]), (index,), serial_outcomes[index]
        )

    tracer = Tracer()
    resumed_journal = CheckpointJournal(tmp_path / "grid", resume=True)
    resumed = _ledgers(
        parallel_simulate(
            _grid_requests(),
            jobs=2,
            supervision=Supervision(
                journal=resumed_journal, tracer=tracer
            ),
        )
    )
    assert resumed == clean
    assert tracer.resilience["points_resumed"] == 2
    assert tracer.resilience["points_simulated"] == 2
    # A consumed grid retires its journal.
    assert not (tmp_path / "grid").exists()


def test_stale_grid_journal_never_leaks(tmp_path):
    requests = _grid_requests()
    outcomes = list(parallel_simulate(_grid_requests(), jobs=1))
    journal = CheckpointJournal(tmp_path / "grid")
    # Journal point 0 under the key of a point of another grid shape.
    stale = _grid_requests(len(requests) + 1)[-1]
    journal.append(_key(stale), (0,), outcomes[-1])

    tracer = Tracer()
    resumed = _ledgers(
        parallel_simulate(
            requests,
            jobs=1,
            supervision=Supervision(
                journal=CheckpointJournal(tmp_path / "grid", resume=True),
                tracer=tracer,
            ),
        )
    )
    assert resumed == _ledgers(outcomes)
    assert "points_resumed" not in tracer.resilience
    assert tracer.resilience["points_simulated"] == len(requests)


def test_truncated_tail_resimulates_only_damaged_point(tmp_path):
    requests = _grid_requests()
    clean = _ledgers(parallel_simulate(requests, jobs=1))

    # Journal the full grid, as a run interrupted during its final
    # measurement replay would have (all simulated, none delivered).
    journal = CheckpointJournal(tmp_path / "grid")
    journal.write_meta(classes={_key(request): 1 for request in requests})
    for index, outcome in enumerate(
        parallel_simulate(_grid_requests(), jobs=1)
    ):
        journal.append(_key(requests[index]), (index,), outcome)

    inject_checkpoint_truncation(tmp_path / "grid", drop_bytes=9)

    tracer = Tracer()
    resumed = _ledgers(
        parallel_simulate(
            requests,
            jobs=1,
            supervision=Supervision(
                journal=CheckpointJournal(tmp_path / "grid", resume=True),
                tracer=tracer,
            ),
        )
    )
    assert resumed == clean
    assert tracer.resilience["points_resumed"] == len(requests) - 1
    assert tracer.resilience["points_simulated"] == 1


def test_abandoned_grid_keeps_journal(tmp_path):
    requests = _grid_requests()
    journal = CheckpointJournal(tmp_path / "grid")
    outcomes = parallel_simulate(
        requests,
        jobs=1,
        supervision=Supervision(journal=journal),
    )
    next(outcomes)
    outcomes.close()  # a consumer unwinding mid-measurement
    assert (tmp_path / "grid").exists()
    assert len(list((tmp_path / "grid").glob("point/*/*.cas"))) == len(
        requests
    )


class _Stop(Exception):
    """Stands in for an interrupt once the journal holds enough entries."""


@pytest.mark.parametrize("vdds", [(1.0,), (0.9, 1.0)])
def test_status_and_resume_agree(tmp_path, vdds):
    # A batched mem_dram grid: one timing class per clock, holding
    # every VDD at that clock.
    spec = SweepSpec(
        workload="mem_dram",
        personas=("chip2",),
        vdd=vdds,
        freq_mhz=(300.0, 400.0, 500.0, 600.0),
        quick=True,
    )
    ctx = RunContext(quick=True)
    clean = run_sweepspec(spec, ctx).records

    path = tmp_path / spec.experiment_id
    journal = CheckpointJournal(path)
    append = journal.append

    def append_then_stop(*args):
        append(*args)
        if journal.cache.entry_count("point") == 3:
            raise _Stop

    journal.append = append_then_stop
    with pytest.raises(_Stop):
        run_sweepspec(spec, ctx, supervision=Supervision(journal=journal))
    inject_checkpoint_truncation(path)
    status = journal_status(path)
    assert len(status.damaged) == 1
    assert (status.points, status.points_expected) == (
        2 * len(vdds),
        spec.n_points,
    )

    tracer = Tracer()
    resumed = run_sweepspec(
        spec,
        ctx,
        supervision=Supervision(
            journal=CheckpointJournal(path, resume=True), tracer=tracer
        ),
    )
    assert resumed.records == clean
    counters = tracer.resilience
    assert counters["points_resumed"] == status.points
    # The rest of the grid was simulated, by a class's representative
    # or as its copy.
    simulated = counters["points_simulated"] + counters.get(
        "batch_points_replicated", 0
    )
    assert counters["points_resumed"] + simulated == spec.n_points


# -------------------------------------------------- pool teardown hygiene
def _slow_task(seconds):
    time.sleep(seconds)
    return seconds


def test_supervised_pool_interrupt_leaves_no_children():
    """A KeyboardInterrupt landing mid-map (raised here from the result
    callback, where a Ctrl-C in the parent surfaces) must propagate and
    take every worker down with it, busy or idle."""
    import multiprocessing

    before = set(p.pid for p in multiprocessing.active_children())
    spawned: list[int] = []

    def on_result(index, result):
        spawned.extend(
            p.pid
            for p in multiprocessing.active_children()
            if p.pid not in before
        )
        raise KeyboardInterrupt

    pool = SupervisedPool(_slow_task, jobs=2)
    with pytest.raises(KeyboardInterrupt):
        pool.map([0.3] * 4, on_result=on_result)
    assert spawned  # the map really ran on worker processes
    after = set(p.pid for p in multiprocessing.active_children())
    assert after <= before


def _worker_pid(task):
    return os.getpid()


class _RecordingPool(SupervisedPool):
    """Records each fork (with what the workers before it hold) and
    the sentinels and joins of its teardown, in order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.events: list[tuple[str, object]] = []

    def _spawn_worker(self):
        held = [worker.assigned for worker in self._workers.values()]
        self.events.append(("spawn", held))
        super()._spawn_worker()

    def _teardown(self):
        for worker in self._workers.values():
            worker.task_q.put = self._recorded("put", worker.task_q.put)
            worker.proc.join = self._recorded("join", worker.proc.join)
        super()._teardown()

    def _recorded(self, name, call):
        def recorded(*args, **kwargs):
            self.events.append((name, args))
            return call(*args, **kwargs)

        return recorded


def test_supervised_pool_hands_out_work_before_bookkeeping():
    """A new worker holds a point before the next one forks; the worker
    that delivered a point already holds the next ready one when
    ``on_result`` (the journal append) runs; teardown queues every idle
    worker's sentinel before it joins any worker."""
    tasks = list(range(6))
    pool = _RecordingPool(_worker_pid, jobs=2)
    holding = []

    def on_result(index, pid):
        (worker,) = [
            w for w in pool._workers.values() if w.proc.pid == pid
        ]
        holding.append(worker.assigned is not None)

    pool.map(tasks, on_result=on_result)
    spawns = [held for event, held in pool.events if event == "spawn"]
    assert spawns == [[], [(0, 0)]]
    # Until the last two points, a ready point is left to hand out.
    assert holding == [True] * (len(tasks) - 2) + [False, False]
    # The workers outlive the map; close() tears them down.
    pool.close()
    teardown = [(event, args) for event, args in pool.events
                if event != "spawn"]
    assert teardown[:2] == [("put", (None,)), ("put", (None,))]
    assert {event for event, _ in teardown[2:]} == {"join"}


def test_supervised_pool_leaves_no_children(monkeypatch):
    """A ``jobs=2`` grid leaves at most its shared pool's 2 workers up,
    and closing the shared pools takes them down."""
    import multiprocessing

    before = set(p.pid for p in multiprocessing.active_children())
    _ledgers(
        parallel_simulate(
            _grid_requests(2),
            jobs=2,
            supervision=Supervision(),
        )
    )
    pool = shared_pool(_simulate_stripped, 2)
    kept = {worker.proc.pid for worker in pool._workers.values()}
    new = set(p.pid for p in multiprocessing.active_children()) - before
    assert len(new) <= 2 and new <= kept
    close_shared_pools()
    after = set(p.pid for p in multiprocessing.active_children())
    assert after <= before


def _late_bulk(task):
    delay, size = task
    time.sleep(delay)
    return b"x" * size


def test_worker_killed_mid_message_harms_no_later_grid():
    """A worker killed half-way through writing its result costs one
    retry of its own point, and the next grid on the same workers runs
    clean. The result is far larger than a pipe holds, and nothing
    reads it while the supervisor is in ``on_result`` (the journal
    append), so the worker is blocked mid-message when it dies."""
    import threading

    bulk = 4 << 20
    pool = SupervisedPool(_late_bulk, jobs=2)
    killed = []

    def on_result(index, result):
        if killed:
            return
        time.sleep(0.5)  # point 1 finishes and blocks writing
        (worker,) = [
            w for w in pool._workers.values() if w.assigned == (1, 0)
        ]
        os.kill(worker.proc.pid, signal.SIGKILL)
        killed.append(worker.proc.pid)

    tracers = [Tracer(), Tracer()]
    results = []

    def grids():
        results.append(
            pool.map(
                [(0.0, 1), (0.2, bulk)], on_result, tracer=tracers[0]
            )
        )
        results.append(
            pool.map([(0.0, bulk), (0.0, 1)], tracer=tracers[1])
        )

    thread = threading.Thread(target=grids, daemon=True)
    thread.start()
    thread.join(30)
    assert not thread.is_alive(), "a torn result stalled the pool"
    pool.close()
    assert killed
    assert results == [[b"x", b"x" * bulk], [b"x" * bulk, b"x"]]
    first, second = (dict(tracer.resilience) for tracer in tracers)
    assert first["worker_crashes"] == 1, first
    assert "fallback_in_process" not in first, first
    assert "worker_crashes" not in second, second
    assert "retries" not in second, second


# -------------------------------------------------- kept pool workers
def _two_grids(monkeypatch, between=None):
    """Run two ``jobs=2`` grids, calling ``between()`` after the first.

    Returns each grid's ledgers and resilience counters, and how many
    workers were forked in all.
    """
    forks = []
    spawn = SupervisedPool._spawn_worker

    def counted(pool):
        forks.append(pool)
        spawn(pool)

    monkeypatch.setattr(SupervisedPool, "_spawn_worker", counted)
    runs = []
    for step in (None, between):
        if step is not None:
            step()
        tracer = Tracer()
        ledgers = _ledgers(
            parallel_simulate(
                _grid_requests(),
                jobs=2,
                supervision=Supervision(tracer=tracer),
            )
        )
        runs.append((ledgers, dict(tracer.resilience)))
    return runs, len(forks)


def test_consecutive_grids_fork_two_workers_in_all(monkeypatch):
    serial = _ledgers(parallel_simulate(_grid_requests(), jobs=1))
    runs, forks = _two_grids(monkeypatch)
    assert forks == 2  # a pool per grid forks 4
    assert [ledgers for ledgers, _ in runs] == [serial, serial]


def test_worker_killed_while_idle_is_replaced_uncounted(monkeypatch):
    def kill_one():
        pool = shared_pool(_simulate_stripped, 2)
        worker = next(iter(pool._workers.values()))
        os.kill(worker.proc.pid, signal.SIGKILL)
        worker.proc.join(5)
        assert not worker.proc.is_alive()

    runs, forks = _two_grids(monkeypatch, kill_one)
    (first, _), (second, counters) = runs
    assert forks == 3
    assert second == first
    assert "worker_crashes" not in counters, counters
    assert "retries" not in counters, counters


def test_fault_armed_between_grids_reaches_kept_workers(monkeypatch):
    """The fault travels with each point, so workers forked before
    the arming (their environment has none) still crash."""
    try:
        runs, forks = _two_grids(
            monkeypatch, lambda: arm_worker_fault("worker_crash", 1)
        )
    finally:
        disarm_worker_fault()
    (first, clean), (second, counters) = runs
    assert second == first
    assert "worker_crashes" not in clean, clean
    assert counters["worker_crashes"] >= 1, counters
    assert "fallback_in_process" not in counters, counters


def test_maps_from_threads_take_turns():
    """Four threads (more than the cores CI has) draw the shared pool
    and map on it at once, with thread switches forced often: they get
    one pool, and each map runs whole, never interleaved with
    another's."""
    import threading

    log: list[int] = []
    pools = {}
    results = {}

    def grid(name):
        pool = pools[name] = shared_pool(_slow_task, 2)
        results[name] = pool.map(
            [0.01 * name] * 3,
            on_result=lambda index, result: log.append(name),
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # Daemonic, with one deadline for all: a map that wedges fails
        # the test instead of hanging the interpreter's exit.
        threads = [
            threading.Thread(target=grid, args=(name,), daemon=True)
            for name in (1, 2, 3, 4)
        ]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len({id(pool) for pool in pools.values()}) == 1
    assert results == {name: [0.01 * name] * 3 for name in (1, 2, 3, 4)}
    # Each map's three results arrive together.
    order = log[::3]
    assert sorted(order) == [1, 2, 3, 4]
    assert log == [name for name in order for _ in range(3)]


def _grid_in_child(done) -> None:
    tracer = Tracer()
    ledgers = _ledgers(
        parallel_simulate(
            _grid_requests(), jobs=2, supervision=Supervision(tracer=tracer)
        )
    )
    done.put((ledgers, dict(tracer.resilience)))


def test_forked_child_forks_its_own_pool():
    """A child forked while its parent keeps workers runs its grid on
    workers of its own and leaves the parent's alone."""
    import multiprocessing

    first = _ledgers(parallel_simulate(_grid_requests(), jobs=2))
    pool = shared_pool(_simulate_stripped, 2)
    kept = {worker.proc.pid for worker in pool._workers.values()}
    done = multiprocessing.Queue()
    child = multiprocessing.Process(target=_grid_in_child, args=(done,))
    child.start()
    ledgers, counters = done.get(timeout=120)
    child.join(30)
    assert child.exitcode == 0
    assert ledgers == first
    assert "worker_crashes" not in counters, counters
    assert {worker.proc.pid for worker in pool._workers.values()} == kept
    assert all(worker.proc.is_alive() for worker in pool._workers.values())


#: Runs a ``jobs=2`` grid, prints its pool's worker pids, then exits,
#: or with ``wait`` sleeps until it is killed.
_KEPT_WORKERS_SCRIPT = """
import sys, time
from repro.experiments.parallel import (
    _simulate_stripped, parallel_simulate, shared_pool,
)
from repro.system import PitonSystem
from repro.workloads.microbench import hist_workload, microbench_core_ids

system = PitonSystem.default(seed=13)
requests = [
    system.sim_request(
        hist_workload(microbench_core_ids(tiles), 1).tiles,
        warmup_cycles=800, window_cycles=1_200,
    )
    for tiles in (2, 3)
]
list(parallel_simulate(requests, jobs=2))
workers = shared_pool(_simulate_stripped, 2)._workers.values()
print(*(worker.proc.pid for worker in workers), flush=True)
if sys.argv[1] == "wait":
    time.sleep(120)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process; a zombie is not."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.parametrize("ending", ["exit", "wait"])
def test_no_worker_outlives_its_interpreter(ending):
    """Kept workers end with the interpreter that forked them: at a
    normal exit it closes them, and a SIGKILLed one leaves them to
    notice its death themselves."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.pop(WORKER_FAULT_ENV, None)
    proc = subprocess.Popen(
        [sys.executable, "-c", _KEPT_WORKERS_SCRIPT, ending],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        if ending == "wait":
            proc.kill()
        assert proc.wait(timeout=60) == (0 if ending == "exit" else -9)
    finally:
        proc.kill()
        proc.stdout.close()
    assert len(pids) == 2
    deadline = time.monotonic() + 2.0
    while any(_running(pid) for pid in pids):
        assert time.monotonic() < deadline, "a pool worker outlived it"
        time.sleep(0.01)


# ------------------------------------------------------------ CLI circuit
def test_status_json_loads_no_service(tmp_path):
    """``repro status --json`` builds its document without the daemon."""
    code = (
        "import sys; from repro import cli; "
        "cli.main(['status', '--json']); "
        "assert 'repro.serve.daemon' not in sys.modules"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["jobs"] == []


def _repro(args, cwd, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.pop(WORKER_FAULT_ENV, None)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _strip(doc):
    return {k: v for k, v in doc.items() if k != "manifest"}


@pytest.mark.slow
def test_cli_sigint_then_resume_bit_identical(tmp_path):
    run = [
        "run",
        "fig11",
        "--quick",
        "--jobs",
        "2",
        "--json",
    ]
    clean_proc = _repro(
        run + ["--out", "clean.json"], cwd=tmp_path
    )
    assert clean_proc.wait(timeout=120) == 0, clean_proc.stdout.read()

    proc = _repro(run + ["--out", "resumed.json"], cwd=tmp_path)
    ckpt = tmp_path / "results" / "checkpoints" / "fig11"
    # Interrupt as soon as the first point is journaled, so the signal
    # lands mid-grid however fast the host runs the 42-point grid (a
    # fixed one-second sleep let a quick grid finish first).
    deadline = time.monotonic() + 60
    while proc.poll() is None and not list(ckpt.glob("point/*/*.cas")):
        assert time.monotonic() < deadline, "no point was ever journaled"
        time.sleep(0.005)
    proc.send_signal(signal.SIGINT)
    code = proc.wait(timeout=60)
    if code == 0:  # the grid won the race; nothing to resume
        pytest.skip("run finished before SIGINT landed")
    assert code == EXIT_RESUMABLE, proc.stdout.read()
    assert ckpt.is_dir() and list(ckpt.glob("point/*/*.cas"))

    resumed_proc = _repro(
        run + ["--out", "resumed.json", "--resume"], cwd=tmp_path
    )
    assert resumed_proc.wait(timeout=120) == 0, resumed_proc.stdout.read()
    assert not ckpt.exists()  # retired after the successful resume

    clean = json.loads((tmp_path / "clean.json").read_text())
    resumed = json.loads((tmp_path / "resumed.json").read_text())
    assert _strip(resumed) == _strip(clean)
    counters = resumed["manifest"]["resilience"]
    assert counters.get("points_resumed", 0) >= 1
    # Resumed points were loaded, not re-simulated: the two counters
    # partition the grid.
    total = counters["points_resumed"] + counters["points_simulated"]
    assert counters["points_simulated"] < total
