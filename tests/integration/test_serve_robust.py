"""Integration coverage for the hardened ``repro serve``.

Chaos-shaped scenarios against real daemons: a worker process that
segfaults mid-job (retried, never fatal), a streaming client that
disconnects (detached, job unharmed), admission control under
saturation (503 + Retry-After), drain mode, shutdown abandoning work
as an explicit ``interrupted`` state,
and — against subprocess daemons — SIGKILL mid-sweep followed by a
restart that recovers the journaled job, resumes from the completed
points, and produces the byte-identical document an uninterrupted
daemon would have.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.check.faults import (
    arm_serve_fault,
    arm_worker_fault,
    disarm_serve_fault,
    disarm_worker_fault,
)
from repro.serve import JobJournal, SimulationService
from repro.sweepspec import SWEEPSPEC_SCHEMA_VERSION

pytestmark = pytest.mark.slow

_SRC = str(Path(__file__).resolve().parents[2] / "src")


def _request(port, method, path, body=None, timeout=300):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def _status_doc(port):
    _, _, body = _request(port, "GET", "/v1/status")
    return json.loads(body)


def _post_async(port, path, body):
    """Fire a POST on a thread; returns (thread, outcome dict)."""
    out: dict = {}

    def go():
        try:
            out["resp"] = _request(port, "POST", path, body)
        except Exception as exc:  # daemon died mid-request, etc.
            out["error"] = exc

    thread = threading.Thread(target=go, daemon=True)
    thread.start()
    return thread, out


def _wait(predicate, timeout=60.0, interval=0.02, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"{what} not reached within {timeout}s")


def _make_service(tmp_path, **kwargs):
    svc = SimulationService(
        port=0,
        cas_dir=tmp_path / "cas",
        checkpoint_dir=tmp_path / "checkpoints",
        jobs_dir=tmp_path / "jobs",
        **kwargs,
    )
    svc.start_background()
    return svc


RUN_BODY = {"experiment": "fig8", "quick": True}


# ---------------------------------------------------------- worker isolation
class TestWorkerIsolation:
    def test_worker_crash_is_retried_not_fatal(self, tmp_path):
        """A worker that dies abruptly (segfault-shaped: os._exit with
        no cleanup) costs a retry, never the daemon."""
        svc = _make_service(tmp_path, workers=1)
        arm_worker_fault("worker_crash", 0)
        try:
            status, headers, body = _request(
                svc.bound_port, "POST", "/v1/run", RUN_BODY
            )
        finally:
            disarm_worker_fault()
        assert status == 200
        assert headers["X-Repro-Cache"] == "miss"
        doc = _status_doc(svc.bound_port)
        crashed = [
            j
            for j in doc["jobs"]
            if j["counters"].get("worker_crashes", 0) >= 1
        ]
        assert crashed, "the crash must be visible on the job manifest"
        assert crashed[0]["state"] == "done"
        assert crashed[0]["counters"].get("retries", 0) >= 1
        # The daemon never shared the blast radius: still serving.
        s2, h2, b2 = _request(
            svc.bound_port, "POST", "/v1/run", RUN_BODY
        )
        assert s2 == 200 and h2["X-Repro-Cache"] == "hit"
        assert b2 == body
        svc.shutdown()


# ---------------------------------------------------------- stream detach
class TestStreamDetach:
    def test_aborted_stream_reader_does_not_cancel_the_job(
        self, tmp_path
    ):
        svc = _make_service(tmp_path, workers=1)
        arm_serve_fault("task_delay", 1.5)
        try:
            thread, out = _post_async(
                svc.bound_port, "/v1/run", RUN_BODY
            )
            job_id = _wait(
                lambda: next(
                    (
                        j["job_id"]
                        for j in _status_doc(svc.bound_port)["jobs"]
                        if j["state"] == "running"
                    ),
                    None,
                ),
                what="a running job",
            )
            # Subscribe to the live stream, then abort rudely (RST).
            sock = socket.create_connection(
                ("127.0.0.1", svc.bound_port), timeout=10
            )
            sock.sendall(
                f"GET /v1/jobs/{job_id}?stream=1 HTTP/1.1\r\n"
                "Host: t\r\n\r\n".encode()
            )
            assert b"200" in sock.recv(256)
            sock.setsockopt(
                socket.SOL_SOCKET,
                socket.SO_LINGER,
                # linger on, timeout 0: close() sends RST, not FIN.
                __import__("struct").pack("ii", 1, 0),
            )
            sock.close()
            thread.join(timeout=120)
        finally:
            disarm_serve_fault()
        assert "error" not in out
        status, _, _ = out["resp"]
        assert status == 200  # the job finished for its real client
        doc = _status_doc(svc.bound_port)
        assert doc["service"]["stream_detached"] >= 1
        assert all(j["state"] == "done" for j in doc["jobs"])
        svc.shutdown()


# ------------------------------------------------------- admission control
class TestAdmissionControl:
    def test_saturated_tier_answers_503_with_retry_after(
        self, tmp_path
    ):
        svc = _make_service(tmp_path, workers=1, queue_depth=0)
        arm_serve_fault("task_delay", 2.0)
        try:
            thread, out = _post_async(
                svc.bound_port, "/v1/run", RUN_BODY
            )
            _wait(
                lambda: _status_doc(svc.bound_port)["service"][
                    "active"
                ]
                >= 1,
                what="an active job",
            )
            status, headers, body = _request(
                svc.bound_port,
                "POST",
                "/v1/run",
                {"experiment": "fig9", "quick": True},
            )
            assert status == 503
            assert int(headers["Retry-After"]) >= 1
            error = json.loads(body)["error"]
            assert "saturated" in error["message"]
            assert error["retry_after_s"] >= 1
            # Read-only endpoints are never load-shed.
            assert _status_doc(svc.bound_port)["service"][
                "rejected_saturated"
            ] == 1
            thread.join(timeout=120)
        finally:
            disarm_serve_fault()
        assert out["resp"][0] == 200  # the admitted job was unharmed
        svc.shutdown()


# ------------------------------------------------------------------- drain
class TestDrainAndInterrupted:
    def test_drain_finishes_running_work_and_refuses_new(
        self, tmp_path
    ):
        svc = _make_service(tmp_path, workers=1, drain_timeout_s=60.0)
        arm_serve_fault("task_delay", 1.5)
        try:
            thread, out = _post_async(
                svc.bound_port, "/v1/run", RUN_BODY
            )
            _wait(
                lambda: _status_doc(svc.bound_port)["service"][
                    "active"
                ]
                >= 1,
                what="an active job",
            )
            svc.begin_drain()
            _wait(
                lambda: _status_doc(svc.bound_port)["service"][
                    "draining"
                ],
                what="drain mode",
            )
            status, headers, _ = _request(
                svc.bound_port,
                "POST",
                "/v1/run",
                {"experiment": "fig9", "quick": True},
            )
            assert status == 503
            assert "Retry-After" in headers
            thread.join(timeout=120)
        finally:
            disarm_serve_fault()
        assert out["resp"][0] == 200  # running work finished cleanly
        svc._bg_thread.join(timeout=30)
        assert not svc._bg_thread.is_alive()
        assert svc._exit_code == 0  # drained inside the timeout
        # Nothing abandoned: the journal is empty.
        assert len(JobJournal(tmp_path / "jobs")) == 0

    def test_shutdown_marks_unfinished_jobs_interrupted(
        self, tmp_path
    ):
        svc = _make_service(tmp_path, workers=1)
        arm_serve_fault("task_delay", 2.5)
        try:
            thread, out = _post_async(
                svc.bound_port, "/v1/run", RUN_BODY
            )
            _wait(
                lambda: any(
                    j["state"] == "running"
                    for j in _status_doc(svc.bound_port)["jobs"]
                ),
                what="a running job",
            )
            svc.shutdown()
        finally:
            disarm_serve_fault()
        thread.join(timeout=120)
        manifests = svc.jobs.manifests()
        interrupted = [
            m for m in manifests if m["state"] == "interrupted"
        ]
        assert interrupted, manifests
        assert "journaled for recovery" in interrupted[0]["error"]
        # The journal kept the record, marked for the next daemon.
        records, damaged = JobJournal(tmp_path / "jobs").scan()
        assert damaged == []
        assert [r.state for r in records] == ["interrupted"]


# ----------------------------------------------------------- crash recovery
SWEEP_SPEC = {
    "schema_version": SWEEPSPEC_SCHEMA_VERSION,
    "workload": "mem_l2",
    "personas": ["chip2"],
    "vdd": [1.0],
    "freq_mhz": [
        300.0, 350.0, 400.0, 450.0, 500.0,
        550.0, 600.0, 650.0, 700.0, 750.0,
    ],
    "quick": True,
}


def _spawn_daemon(tmp_path, extra_env=None):
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("REPRO_SERVE_FAULT", None)
    env.update(extra_env or {})
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--cas-dir", str(tmp_path / "cas"),
            "--checkpoint-dir", str(tmp_path / "checkpoints"),
            "--jobs-dir", str(tmp_path / "jobs"),
            "--workers", "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        cwd=str(tmp_path),
    )
    line = proc.stdout.readline()
    if "serving on" not in line:
        proc.kill()
        raise AssertionError(
            f"daemon failed to start: {line!r}\n{proc.stdout.read()}"
        )
    return proc, int(line.strip().rsplit(":", 1)[1])


def _proc_state(pid: int) -> str | None:
    """A process's state letter from ``/proc`` (``None`` once gone)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces; the fields follow its ")".
    return stat.rsplit(")", 1)[1].split()[0]


def _live_descendants(pid: int) -> list[int]:
    """PIDs of every live (non-zombie) process below ``pid``."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z":
            children.setdefault(int(ppid), []).append(int(entry.name))
    found, frontier = [], [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def _strip_volatile(body: bytes) -> dict:
    """Drop the two honest-but-volatile keys (wall clock, cache
    traffic); everything else must be byte-for-byte deterministic."""
    doc = json.loads(body)
    doc.pop("wall_s", None)
    doc.pop("cache", None)
    return doc


class TestCrashRecovery:
    def test_sigkill_mid_sweep_recovers_resumed_and_identical(
        self, tmp_path
    ):
        """The headline guarantee: SIGKILL mid-sweep, restart, and the
        recovered daemon finishes the journaled job from its completed
        points — ``points_resumed > 0`` and a final document identical
        to an uninterrupted daemon's."""
        chaos = tmp_path / "chaos"
        chaos.mkdir()
        proc, port = _spawn_daemon(chaos)
        try:
            _post_async(port, "/v1/sweep", SWEEP_SPEC)
            point_dir = chaos / "cas" / "point"
            _wait(
                lambda: any(point_dir.rglob("*.cas")),
                interval=0.002,
                what="the first completed point in the CAS",
            )
        finally:
            proc.kill()  # SIGKILL: no drain, no journal retirement
            proc.wait(timeout=30)
        records, _ = JobJournal(chaos / "jobs").scan()
        assert [r.kind for r in records] == ["sweep"]

        proc2, port2 = _spawn_daemon(chaos)
        try:
            _wait(
                lambda: (
                    lambda s: s["jobs_recovered"] >= 1
                    and s["journaled_jobs"] == 0
                )(_status_doc(port2)["service"]),
                timeout=240,
                what="startup recovery",
            )
            doc = _status_doc(port2)
            recovered = [
                j for j in doc["jobs"] if j["kind"] == "sweep"
            ]
            assert recovered and recovered[0]["state"] == "done"
            assert (
                recovered[0]["counters"].get("points_resumed", 0) > 0
            ), "recovery must resume from journaled points, not redo"
            status, headers, recovered_body = _request(
                port2, "POST", "/v1/sweep", SWEEP_SPEC
            )
            assert status == 200
            assert headers["X-Repro-Cache"] == "hit"
        finally:
            proc2.kill()
            proc2.wait(timeout=30)

        # An uninterrupted daemon over fresh stores: the reference.
        clean = tmp_path / "clean"
        clean.mkdir()
        proc3, port3 = _spawn_daemon(clean)
        try:
            status, _, clean_body = _request(
                port3, "POST", "/v1/sweep", SWEEP_SPEC
            )
            assert status == 200
        finally:
            proc3.kill()
            proc3.wait(timeout=30)
        assert _strip_volatile(recovered_body) == _strip_volatile(
            clean_body
        )

    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists(), reason="reads Linux /proc"
    )
    def test_sigkill_daemon_leaves_no_worker_behind(self, tmp_path):
        """A worker must not outlive its SIGKILLed daemon: with nobody
        left to send it work or read its results, it exits."""
        proc, port = _spawn_daemon(tmp_path)
        try:
            _post_async(port, "/v1/sweep", SWEEP_SPEC)
            workers = _wait(
                lambda: _live_descendants(proc.pid),
                what="a worker process of the daemon",
            )
        finally:
            proc.kill()
            proc.wait(timeout=30)
        _wait(
            lambda: all(_proc_state(pid) in (None, "Z") for pid in workers),
            timeout=10.0,
            what=f"exit of the killed daemon's workers {workers}",
        )

    def test_daemon_kill_injector_fires_and_run_recovers(
        self, tmp_path
    ):
        """The injector variant: die right after the job's ``running``
        record lands — the worst instant — and recover the run."""
        root = tmp_path / "killed"
        root.mkdir()
        proc, port = _spawn_daemon(
            root, extra_env={"REPRO_SERVE_FAULT": "daemon_kill:1"}
        )
        try:
            _post_async(port, "/v1/run", RUN_BODY)
            assert proc.wait(timeout=60) == 9  # died as armed
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        records, _ = JobJournal(root / "jobs").scan()
        assert [(r.kind, r.state) for r in records] == [
            ("run", "running")
        ]

        proc2, port2 = _spawn_daemon(root)
        try:
            _wait(
                lambda: _status_doc(port2)["service"][
                    "jobs_recovered"
                ]
                >= 1,
                timeout=240,
                what="run recovery",
            )
            assert len(JobJournal(root / "jobs")) == 0
            status, headers, _ = _request(
                port2, "POST", "/v1/run", RUN_BODY
            )
            assert status == 200
            assert headers["X-Repro-Cache"] == "hit"
        finally:
            proc2.kill()
            proc2.wait(timeout=30)
