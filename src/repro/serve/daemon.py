"""The ``repro serve`` daemon: simulation-as-a-service.

One asyncio process turns the repository's experiment runners into a
service with a memory:

* ``POST /v1/run``            — one registry experiment (by id, plus
  RunContext overrides: quick/persona/tier/fidelity/jobs/batch/checks);
  the response body is byte-identical to ``repro run --json``.
* ``POST /v1/sweep``          — a :class:`~repro.sweepspec.SweepSpec`
  document; the response is the same document ``repro sweep --json``
  emits (one shared serializer).
* ``GET /v1/jobs/<id>``       — job manifest + recorded telemetry
  events; ``?stream=1`` streams events live as chunked JSON lines.
* ``GET /v1/experiments``     — registry metadata (``repro list
  --json``'s document).
* ``GET /v1/status``          — the shared status document (``repro
  status --json``'s document), plus this daemon's job manifests, CAS
  statistics, and service/admission counters.

Completed work is memoized in the content-addressed store under
``results/cas/`` (:mod:`repro.serve.cas`): whole response documents
keyed by the request's canonical digest, and — for sweeps — every
simulated timing class via :class:`~repro.serve.cas.CasJournal`, so
a new sweep that overlaps an old one only simulates the novel classes.
Identical in-flight requests coalesce onto one future: N concurrent
identical POSTs trigger exactly one simulation and N byte-identical
responses. The ``X-Repro-Cache`` response header says which path
served each request (``miss`` | ``hit`` | ``coalesced``), and
``X-Repro-Job`` names the job.

Execution is **process-isolated** (:mod:`repro.serve.workers`): every
admitted job runs in a supervised worker process with heartbeats, a
deadline, and bounded retries — a crashed or hung simulation is
retried and reported, never fatal to the daemon. Admitted jobs are
**durable** (:mod:`repro.serve.journal`): journaled before execution,
retired after, recovered on the next start if the daemon dies in
between (sweeps resume from their per-class CAS entries, so completed
work is never repeated). Admission is **bounded**: a saturated tier
answers ``503 + Retry-After``, and ``SIGTERM`` enters drain mode —
running jobs finish, new simulating requests get 503, and a drain
that times out journals the stragglers and exits 75 (the resumable
exit code, matching ``repro run``). The CAS itself is kept under a
size quota by background LRU eviction (``--cas-quota-mb``), with
eviction and scrub totals on ``/v1/status``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import hashlib
import json
import os
import signal
import sys
from pathlib import Path

from repro.experiments import EXPERIMENTS
from repro.experiments.context import DEFAULT_CHECKPOINT_DIR
from repro.resilience import status_document
from repro.resilience.signals import EXIT_RESUMABLE
from repro.serve.cas import DEFAULT_CAS_DIR, ResultCache
from repro.serve.http import (
    LAST_CHUNK,
    HttpRequest,
    ProtocolError,
    chunk,
    error_response,
    json_response,
    read_request,
    response,
    response_head,
)
from repro.serve.jobs import Job, JobRegistry
from repro.serve.journal import DEFAULT_JOBS_DIR, JobJournal, JobRecord
from repro.serve.workers import WorkerTier
from repro.sweepspec import SpecError, SweepSpec

_RUN_FIELDS = {
    "experiment",
    "quick",
    "persona",
    "tier",
    "fidelity",
    "jobs",
    "batch",
    "checks",
}


class RequestError(Exception):
    """A well-formed HTTP request asking for something invalid."""

    def __init__(self, message: str, **details: object):
        self.details = details
        super().__init__(message)


def _canonical_digest(document: dict) -> str:
    """sha256 over canonical JSON: the service's request identity."""
    blob = json.dumps(
        document, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _parse_run_body(data: object) -> dict:
    """Validate a ``POST /v1/run`` body, field by field."""
    from repro.silicon.variation import PERSONAS

    if not isinstance(data, dict):
        raise RequestError(
            "request body must be a JSON object",
            got=type(data).__name__,
        )
    unknown = sorted(set(data) - _RUN_FIELDS)
    if unknown:
        raise RequestError(
            f"unknown field {unknown[0]!r}",
            allowed=sorted(_RUN_FIELDS),
        )
    experiment = data.get("experiment")
    if not isinstance(experiment, str) or not experiment:
        raise RequestError(
            "field 'experiment' is required",
            known=sorted(EXPERIMENTS),
        )
    if experiment not in EXPERIMENTS:
        raise RequestError(
            f"unknown experiment {experiment!r}",
            known=sorted(EXPERIMENTS),
        )
    persona = data.get("persona")
    if persona is not None and persona not in PERSONAS:
        raise RequestError(
            f"unknown persona {persona!r}",
            known=sorted(PERSONAS),
        )
    for name in ("quick", "batch", "checks"):
        if name in data and not isinstance(data[name], bool):
            raise RequestError(
                f"field {name!r} must be true/false",
                got=data[name],
            )
    tier = data.get("tier", "sim")
    if tier not in ("sim", "auto", "fast"):
        raise RequestError(
            f"field 'tier' must be one of sim/auto/fast, got {tier!r}"
        )
    fidelity = data.get("fidelity", 0.05)
    if (
        isinstance(fidelity, bool)
        or not isinstance(fidelity, (int, float))
        or fidelity <= 0
    ):
        raise RequestError(
            f"field 'fidelity' must be a positive number, "
            f"got {fidelity!r}"
        )
    jobs = data.get("jobs", 1)
    if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 0:
        raise RequestError(
            f"field 'jobs' must be a non-negative integer, got {jobs!r}"
        )
    return {
        "experiment": experiment,
        "quick": bool(data.get("quick", False)),
        "persona": persona,
        "tier": tier,
        "fidelity": float(fidelity),
        "jobs": jobs,
        "batch": bool(data.get("batch", True)),
        "checks": bool(data.get("checks", False)),
    }


class SimulationService:
    """The daemon: routing, cache arbitration, and job execution."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cas_dir: str | Path = DEFAULT_CAS_DIR,
        checkpoint_dir: str | Path = DEFAULT_CHECKPOINT_DIR,
        profile_dir: str | None = None,
        workers: int = 2,
        *,
        jobs_dir: str | Path = DEFAULT_JOBS_DIR,
        queue_depth: int = 8,
        cas_quota_mb: float | None = None,
        gc_interval_s: float = 60.0,
        retries: int = 2,
        deadline_s: float | None = None,
        drain_timeout_s: float = 30.0,
    ):
        self.host = host
        self.port = port
        self.cache = ResultCache(cas_dir)
        self.checkpoint_dir = str(checkpoint_dir)
        self.profile_dir = profile_dir
        self.jobs = JobRegistry()
        self.journal = JobJournal(jobs_dir)
        self.tier = WorkerTier(
            workers=workers, retries=retries, deadline_s=deadline_s
        )
        self.queue_depth = max(0, queue_depth)
        self.cas_quota_bytes = (
            int(cas_quota_mb * 1024 * 1024)
            if cas_quota_mb is not None
            else None
        )
        self.gc_interval_s = gc_interval_s
        self.drain_timeout_s = drain_timeout_s
        #: (digest, tier, tolerance) -> Future[bytes]; loop-thread only.
        self._inflight: dict[tuple, asyncio.Future] = {}
        #: Jobs currently admitted to the tier (running or queued).
        self._active = 0
        self._draining = False
        self._counters: dict[str, int] = {
            "accepted": 0,
            "rejected_saturated": 0,
            "jobs_recovered": 0,
            "jobs_recovery_failed": 0,
            "journal_quarantined": 0,
            "stream_detached": 0,
        }
        self._exit_code = 0
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self.bound_port: int | None = None

    # ------------------------------------------------------------- identities
    @staticmethod
    def run_digest(params: dict) -> str:
        """Identity of a run request: only the fields that shape the
        simulated result. Tier/fidelity/jobs/batch/checks are excluded
        — they cannot change a cycle-level document's bytes — and tier
        arbitration instead happens against the *entry's* recorded
        tier (a surrogate-served document never satisfies ``sim``)."""
        return _canonical_digest(
            {
                "kind": "run",
                "experiment": params["experiment"],
                "quick": params["quick"],
                "persona": params["persona"],
            }
        )

    @staticmethod
    def sweep_digest(spec: SweepSpec) -> str:
        return _canonical_digest(
            {"kind": "sweep", "spec": spec.to_dict(), "seed": 0}
        )

    # -------------------------------------------------------------- lifecycle
    async def _serve(
        self,
        announce: bool = False,
        ready=None,
        install_signals: bool = False,
    ) -> None:
        self._stop = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        if install_signals:
            try:
                self._loop.add_signal_handler(
                    signal.SIGTERM,
                    lambda: asyncio.ensure_future(self._drain()),
                )
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or exotic platform
        server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.bound_port = server.sockets[0].getsockname()[1]
        if announce:
            print(
                f"serving on http://{self.host}:{self.bound_port}",
                flush=True,
            )
        if ready is not None:
            ready.set()
        recovery = asyncio.ensure_future(self._recover_jobs())
        gc_task = (
            asyncio.ensure_future(self._gc_loop())
            if self.cas_quota_bytes is not None
            else None
        )
        try:
            async with server:
                await self._stop.wait()
        finally:
            recovery.cancel()
            if gc_task is not None:
                gc_task.cancel()
            self.tier.shutdown()
            self._interrupt_unfinished()

    def _interrupt_unfinished(self) -> None:
        """Shutdown reached jobs still queued/running: make that an
        explicit ``interrupted`` state (not a manifest forever claiming
        ``running``) and keep their journal records for recovery."""
        for job in self.jobs:
            if job.done:
                continue
            job.mark_interrupted()
            self.journal.mark_interrupted(
                job.manifest.kind, job.manifest.digest
            )

    async def _drain(self) -> None:
        """SIGTERM: finish running jobs, refuse new ones, then stop.

        Exits 0 when every active job finished inside the timeout;
        otherwise journals the stragglers (they are already journaled
        — the journal record is only retired on completion) and exits
        :data:`~repro.resilience.EXIT_RESUMABLE` so an operator's
        supervisor knows a restart will pick the work back up.
        """
        if self._draining:
            return
        self._draining = True
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.drain_timeout_s
        while self._active > 0 and loop.time() < deadline:
            await asyncio.sleep(0.05)
        self._exit_code = (
            EXIT_RESUMABLE if self._active > 0 else 0
        )
        assert self._stop is not None
        self._stop.set()

    def begin_drain(self) -> None:
        """Thread-safe drain trigger (tests and embedding code; the
        foreground daemon gets it from SIGTERM)."""
        loop = self._loop
        if loop is None:
            return
        loop.call_soon_threadsafe(
            lambda: asyncio.ensure_future(self._drain())
        )

    def run_blocking(self) -> int:
        """Foreground mode (``repro serve``); SIGINT exits cleanly,
        SIGTERM drains."""
        try:
            asyncio.run(
                self._serve(announce=True, install_signals=True)
            )
        except KeyboardInterrupt:
            return 0
        if self._exit_code == EXIT_RESUMABLE:
            # Supervisor threads may still hold hung work; a normal
            # exit would block joining them. Everything unfinished is
            # journaled — leave abruptly, like the resumable-run path.
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(EXIT_RESUMABLE)
        return self._exit_code

    def start_background(self):
        """Run the daemon on a daemon thread (tests); returns once the
        socket is bound, with ``self.bound_port`` set."""
        import threading

        ready = threading.Event()
        loop_holder: dict[str, asyncio.AbstractEventLoop] = {}

        async def main() -> None:
            loop_holder["loop"] = asyncio.get_running_loop()
            await self._serve(ready=ready)

        thread = threading.Thread(
            target=lambda: asyncio.run(main()),
            name="repro-serve",
            daemon=True,
        )
        thread.start()
        if not ready.wait(timeout=30):
            raise RuntimeError("service failed to start within 30s")
        self._bg_loop = loop_holder["loop"]
        self._bg_thread = thread
        return thread

    def shutdown(self) -> None:
        """Stop a background daemon started by :meth:`start_background`."""
        loop = getattr(self, "_bg_loop", None)
        if loop is not None and self._stop is not None:
            loop.call_soon_threadsafe(self._stop.set)
            self._bg_thread.join(timeout=10)

    # --------------------------------------------------------------- recovery
    async def _recover_jobs(self) -> None:
        """Replay journaled jobs a previous daemon never finished.

        Runs as a startup task on the event loop: each record goes
        through the same admission-free execution path a fresh request
        would, so recovered work coalesces with (and is visible to)
        live traffic. Sweeps resume from their per-class CAS entries —
        the worker's ``CasJournal`` serves completed points back, and
        the run counts them as ``points_resumed``.
        """
        records, damaged = self.journal.scan()
        if damaged:
            self._counters["journal_quarantined"] += len(damaged)
        for rec in records:
            if self._draining:
                break
            try:
                await self._recover_one(rec)
            except asyncio.CancelledError:
                raise
            except Exception:
                self._counters["jobs_recovery_failed"] += 1
            else:
                self._counters["jobs_recovered"] += 1

    async def _recover_one(self, rec: JobRecord) -> None:
        if rec.kind == "run":
            params = _parse_run_body(rec.request["params"])
            digest = self.run_digest(params)
            plan = dict(
                kind="run",
                namespace="run",
                digest=digest,
                tier=params["tier"],
                tolerance=params["fidelity"],
                experiment_id=params["experiment"],
                task=self._run_task(params),
            )
        elif rec.kind == "sweep":
            spec = SweepSpec.from_dict(rec.request["spec"])
            tier = str(rec.request.get("tier", "sim"))
            fidelity = float(rec.request.get("fidelity", 0.05))
            jobs = int(rec.request.get("jobs", 1))
            plan = dict(
                kind="sweep",
                namespace="sweep",
                digest=self.sweep_digest(spec),
                tier=tier,
                tolerance=fidelity,
                experiment_id=spec.experiment_id,
                task=self._sweep_task(
                    spec.to_dict(), tier, fidelity, jobs
                ),
            )
        else:
            raise ValueError(f"unknown journaled kind {rec.kind!r}")
        # The dying daemon may have finished the work but not retired
        # the record (killed between CAS put and retire): a completed
        # entry means the job is already recovered.
        entry = self.cache.lookup(
            plan["namespace"],
            plan["digest"],
            tier=plan["tier"],
            tolerance=plan["tolerance"],
        )
        if entry is not None:
            self.journal.retire(rec.kind, plan["digest"])
            return
        if (plan["namespace"], plan["digest"], plan["tier"],
                plan["tolerance"]) in self._inflight:
            return  # a live request already resubmitted it
        body, _job, error = await self._execute_job(
            request_doc=rec.request, **plan
        )
        if body is None:
            raise RuntimeError(error or "recovery failed")

    # -------------------------------------------------------------- transport
    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                request = await read_request(reader)
            except ProtocolError as exc:
                writer.write(error_response(exc.status, str(exc)))
                return
            if request is None:
                return
            if request.query.get("stream") and (
                request.method == "GET"
                and request.path.startswith("/v1/jobs/")
            ):
                await self._stream_job(request, writer)
                return
            writer.write(await self._route(request))
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass
            writer.close()

    async def _route(self, request: HttpRequest) -> bytes:
        path, method = request.path, request.method
        try:
            if path == "/v1/experiments":
                if method != "GET":
                    return error_response(405, "GET only")
                from repro.experiments.registry import (
                    experiments_document,
                )

                return json_response(200, experiments_document())
            if path == "/v1/status":
                if method != "GET":
                    return error_response(405, "GET only")
                return json_response(
                    200,
                    status_document(
                        self.checkpoint_dir,
                        jobs=self.jobs.manifests(),
                        cas=self.cache.stats(),
                        service=self._service_section(),
                    ),
                )
            if path.startswith("/v1/jobs/"):
                if method != "GET":
                    return error_response(405, "GET only")
                return self._job_response(path[len("/v1/jobs/"):])
            if path == "/v1/run":
                if method != "POST":
                    return error_response(405, "POST only")
                return await self._handle_run(request)
            if path == "/v1/sweep":
                if method != "POST":
                    return error_response(405, "POST only")
                return await self._handle_sweep(request)
            return error_response(404, f"no route for {path}")
        except ProtocolError as exc:
            return error_response(exc.status, str(exc))
        except RequestError as exc:
            return error_response(400, str(exc), **exc.details)
        except SpecError as exc:
            return error_response(
                400,
                str(exc),
                spec_field=exc.spec_field,
                problem=exc.problem,
                hint=exc.hint,
            )
        except Exception as exc:  # noqa: BLE001 - daemon must answer
            return error_response(
                500, f"{type(exc).__name__}: {exc}"
            )

    def _service_section(self) -> dict[str, object]:
        """The daemon half of the shared status document."""
        return {
            "draining": self._draining,
            "workers": self.tier.workers,
            "queue_depth": self.queue_depth,
            "active": self._active,
            "journal_dir": str(self.journal.root),
            "journaled_jobs": len(self.journal),
            "cas_quota_bytes": self.cas_quota_bytes,
            **self._counters,
        }

    # ------------------------------------------------------------------- jobs
    def _job_response(self, job_id: str) -> bytes:
        job = self.jobs.get(job_id)
        if job is None:
            return error_response(404, f"unknown job {job_id!r}")
        events, _ = job.events_since(0)
        doc = job.snapshot()
        doc["events"] = events
        return json_response(200, doc)

    async def _stream_job(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        job_id = request.path[len("/v1/jobs/"):]
        job = self.jobs.get(job_id)
        if job is None:
            writer.write(
                error_response(404, f"unknown job {job_id!r}")
            )
            return
        lost = None
        try:
            writer.write(
                response_head(
                    200,
                    content_type="application/x-ndjson",
                    chunked=True,
                    extra_headers={"X-Repro-Job": job.job_id},
                )
            )
            await writer.drain()
            # A quiet job writes nothing that would surface a gone
            # subscriber: wait on the connection's loss as well as the
            # next poll, so a disconnect counts the moment it happens.
            lost = asyncio.ensure_future(writer.wait_closed())
            lost.add_done_callback(
                lambda task: task.cancelled() or task.exception()
            )
            cursor = 0
            while True:
                events, cursor = job.events_since(cursor)
                for event in events:
                    writer.write(
                        chunk(
                            (json.dumps(event) + "\n").encode("utf-8")
                        )
                    )
                if events:
                    await writer.drain()
                if lost.done() or writer.is_closing():
                    raise ConnectionResetError("client went away")
                if job.done:
                    break
                await asyncio.wait([lost], timeout=0.05)
            final = {"event": "end", "manifest": job.snapshot()}
            writer.write(
                chunk((json.dumps(final) + "\n").encode("utf-8"))
            )
            writer.write(LAST_CHUNK)
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            # The subscriber disconnected; the job is not theirs to
            # kill. Detach and let it run — the next poll of
            # /v1/jobs/<id> still sees every event.
            self._counters["stream_detached"] += 1
        finally:
            if lost is not None:
                lost.cancel()

    # --------------------------------------------------------------- /v1/run
    def _run_task(self, params: dict) -> dict:
        return {
            "kind": "run",
            "params": dict(params),
            "profile_dir": self.profile_dir,
        }

    async def _handle_run(self, request: HttpRequest) -> bytes:
        params = _parse_run_body(request.json())
        digest = self.run_digest(params)
        return await self._serve_cached(
            kind="run",
            namespace="run",
            digest=digest,
            tier=params["tier"],
            tolerance=params["fidelity"],
            experiment_id=params["experiment"],
            task=self._run_task(params),
            request_doc={"params": params},
        )

    # ------------------------------------------------------------- /v1/sweep
    def _sweep_task(
        self, spec_dict: dict, tier: str, fidelity: float, jobs: int
    ) -> dict:
        return {
            "kind": "sweep",
            "spec": spec_dict,
            "tier": tier,
            "fidelity": fidelity,
            "jobs": jobs,
            "cas_dir": str(self.cache.root),
            "profile_dir": self.profile_dir,
        }

    async def _handle_sweep(self, request: HttpRequest) -> bytes:
        spec = SweepSpec.from_dict(request.json())
        tier = request.query.get("tier", "sim")
        if tier not in ("sim", "auto", "fast"):
            raise RequestError(
                f"query parameter 'tier' must be sim/auto/fast, "
                f"got {tier!r}"
            )
        try:
            fidelity = float(request.query.get("fidelity", "0.05"))
            jobs = int(request.query.get("jobs", "1"))
        except ValueError as exc:
            raise RequestError(
                f"malformed query parameter: {exc}"
            ) from exc
        digest = self.sweep_digest(spec)
        return await self._serve_cached(
            kind="sweep",
            namespace="sweep",
            digest=digest,
            tier=tier,
            tolerance=fidelity,
            experiment_id=spec.experiment_id,
            task=self._sweep_task(spec.to_dict(), tier, fidelity, jobs),
            request_doc={
                "spec": spec.to_dict(),
                "tier": tier,
                "fidelity": fidelity,
                "jobs": jobs,
            },
        )

    # ------------------------------------------------- cache + coalescing
    async def _serve_cached(
        self,
        kind: str,
        namespace: str,
        digest: str,
        tier: str,
        tolerance: float,
        experiment_id: str,
        task: dict,
        request_doc: dict,
    ) -> bytes:
        """The admission + memo path every simulating endpoint shares.

        Order of arbitration: completed entry in the store → serve
        the stored bytes (``hit``) → identical request currently
        executing → await its future (``coalesced``) → drain mode or
        saturated tier (503) → admit: journal, simulate in an
        isolated worker, store, resolve the shared future (``miss``).
        The inflight table only mutates on the event-loop thread, so
        no lock.
        """
        entry = self.cache.lookup(
            namespace, digest, tier=tier, tolerance=tolerance
        )
        if entry is not None:
            job = self.jobs.create(kind, digest, experiment_id)
            job.add_counters({"cas_hits": 1})
            job.finish()
            return response(
                200,
                entry.payload,
                extra_headers={
                    "X-Repro-Cache": "hit",
                    "X-Repro-Job": job.job_id,
                },
            )

        key = (namespace, digest, tier, tolerance)
        shared = self._inflight.get(key)
        if shared is not None:
            job = self.jobs.create(kind, digest, experiment_id)
            job.add_counters({"inflight_coalesced": 1})
            try:
                body = await asyncio.shield(shared)
            except Exception as exc:  # the one simulation failed
                job.finish(error=str(exc))
                return error_response(
                    500,
                    f"coalesced request failed: {exc}",
                    job=job.job_id,
                )
            job.finish()
            return response(
                200,
                body,
                extra_headers={
                    "X-Repro-Cache": "coalesced",
                    "X-Repro-Job": job.job_id,
                },
            )

        if self._draining:
            return error_response(
                503,
                "daemon is draining; not accepting new work",
                retry_after=self.drain_timeout_s,
            )
        if self._active >= self.tier.workers + self.queue_depth:
            self._counters["rejected_saturated"] += 1
            return error_response(
                503,
                "worker tier saturated",
                retry_after=5.0,
                active=self._active,
            )

        body, job, error = await self._execute_job(
            kind=kind,
            namespace=namespace,
            digest=digest,
            tier=tier,
            tolerance=tolerance,
            experiment_id=experiment_id,
            task=task,
            request_doc=request_doc,
        )
        if body is None:
            return error_response(500, error, job=job.job_id)
        return response(
            200,
            body,
            extra_headers={
                "X-Repro-Cache": "miss",
                "X-Repro-Job": job.job_id,
            },
        )

    async def _execute_job(
        self,
        kind: str,
        namespace: str,
        digest: str,
        tier: str,
        tolerance: float,
        experiment_id: str,
        task: dict,
        request_doc: dict,
    ) -> tuple[bytes | None, Job, str | None]:
        """Journal, execute on the isolated tier, store, retire.

        The one execution path shared by live requests and startup
        recovery. Returns ``(body, job, None)`` on success and
        ``(None, job, error)`` on a deterministic failure (which also
        retires the journal record: replaying a request that fails on
        its merits would fail forever).
        """
        from repro.check.faults import trigger_daemon_kill

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        # A failed simulation with zero coalesced waiters must not
        # complain about never-retrieved exceptions.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None
        )
        key = (namespace, digest, tier, tolerance)
        self._inflight[key] = future
        job = self.jobs.create(kind, digest, experiment_id)
        self.journal.record(kind, digest, "accepted", request_doc)
        self._counters["accepted"] += 1
        self._active += 1
        job.mark_running()
        self.journal.record(kind, digest, "running", request_doc)
        trigger_daemon_kill()
        try:
            body, counters, meta = await asyncio.wrap_future(
                self.tier.submit(task, job)
            )
        except (asyncio.CancelledError, concurrent.futures.CancelledError):
            # Shutdown cancelled a queued job: explicit interrupted
            # state, journal record kept for the next daemon.
            job.mark_interrupted()
            self.journal.mark_interrupted(kind, digest)
            if not future.done():
                future.cancel()
            raise
        except Exception as exc:
            job.finish(error=f"{type(exc).__name__}: {exc}")
            self.journal.retire(kind, digest)
            future.set_exception(exc)
            return None, job, f"{type(exc).__name__}: {exc}"
        finally:
            self._active -= 1
            self._inflight.pop(key, None)
        entry_tier = (
            "sim"
            if tier == "sim" or not counters.get("surrogate_hits")
            else "fast"
        )
        self.cache.put(
            namespace,
            digest,
            body,
            tier=entry_tier,
            tier_err=float(meta.get("surrogate_max_err", 0.0) or 0.0),
        )
        # Per-point CAS traffic happened in the worker process against
        # its own handle; fold it into the daemon's lifetime totals.
        self.cache.hits += int(counters.get("cas_hits", 0))
        self.cache.misses += int(counters.get("cas_misses", 0))
        job.add_counters({"cas_misses": 1})
        job.add_counters(
            {k: v for k, v in counters.items() if isinstance(v, int)}
        )
        job.finish()
        self.journal.retire(kind, digest)
        future.set_result(body)
        if self.cas_quota_bytes is not None:
            await loop.run_in_executor(
                None, self.cache.gc, self.cas_quota_bytes
            )
        return body, job, None

    # ------------------------------------------------------------ cas upkeep
    async def _gc_loop(self) -> None:
        """Background LRU enforcement of the CAS size quota."""
        assert self.cas_quota_bytes is not None
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.gc_interval_s)
            await loop.run_in_executor(
                None, self.cache.gc, self.cas_quota_bytes
            )
