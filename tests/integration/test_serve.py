"""Integration tests for `repro serve`: a real daemon on localhost.

The service promises are behavioral, so these tests exercise them over
actual sockets: cold requests simulate and cache, identical warm
requests return the stored bytes unchanged, N concurrent identical
requests coalesce onto one simulation, and the read-only endpoints
emit the same documents as their CLI twins (one serializer each).
"""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.cli import main
from repro.serve import SimulationService, status_document
from repro.sweepspec import SWEEPSPEC_SCHEMA_VERSION, SweepSpec

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve")
    svc = SimulationService(
        port=0,
        cas_dir=root / "cas",
        checkpoint_dir=root / "checkpoints",
        workers=4,
        jobs_dir=root / "jobs",
    )
    svc.start_background()
    yield svc
    svc.shutdown()


def _request(service, method, path, body=None):
    """One HTTP exchange; returns (status, headers dict, body bytes)."""
    conn = http.client.HTTPConnection(
        "127.0.0.1", service.bound_port, timeout=300
    )
    try:
        payload = (
            json.dumps(body).encode("utf-8") if body is not None else None
        )
        headers = (
            {"Content-Type": "application/json"} if payload else {}
        )
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def _strip_manifest(body: bytes) -> dict:
    doc = json.loads(body)
    doc.pop("manifest", None)
    return doc


# ------------------------------------------------------------ read endpoints
class TestReadEndpoints:
    def test_experiments_matches_cli_list_json(self, service, capsys):
        status, _, body = _request(service, "GET", "/v1/experiments")
        assert status == 200
        assert main(["list", "--json"]) == 0
        cli_doc = json.loads(capsys.readouterr().out)
        assert json.loads(body) == cli_doc
        assert any(e["id"] == "fig11" for e in cli_doc)

    def test_status_matches_cli_status_json(self, service, capsys):
        status, _, body = _request(service, "GET", "/v1/status")
        assert status == 200
        doc = json.loads(body)
        assert main(
            ["status", "--json", "--checkpoint-dir",
             service.checkpoint_dir]
        ) == 0
        cli_doc = json.loads(capsys.readouterr().out)
        # One serializer: identical apart from the daemon's live jobs.
        assert doc["schema_version"] == cli_doc["schema_version"]
        assert doc["checkpoint_dir"] == cli_doc["checkpoint_dir"]
        assert doc["experiments"] == cli_doc["experiments"]
        assert cli_doc["jobs"] == []
        assert isinstance(doc["jobs"], list)

    def test_status_document_is_the_shared_serializer(self, service):
        _, _, body = _request(service, "GET", "/v1/status")
        doc = json.loads(body)
        local = status_document(service.checkpoint_dir)
        assert doc["experiments"] == local["experiments"]

    def test_unknown_route_404(self, service):
        status, _, body = _request(service, "GET", "/v2/nope")
        assert status == 404
        assert "no route" in json.loads(body)["error"]["message"]

    def test_wrong_method_405(self, service):
        status, _, _ = _request(service, "POST", "/v1/experiments")
        assert status == 405


# ------------------------------------------------------------------ /v1/run
class TestRunEndpoint:
    def test_cold_miss_then_warm_hit_bit_identical(self, service):
        body = {"experiment": "fig8", "quick": True}
        s1, h1, b1 = _request(service, "POST", "/v1/run", body)
        assert s1 == 200
        assert h1["X-Repro-Cache"] == "miss"
        s2, h2, b2 = _request(service, "POST", "/v1/run", body)
        assert s2 == 200
        assert h2["X-Repro-Cache"] == "hit"
        assert b1 == b2  # byte-identical, straight from the store

        # The warm job's manifest records how it was served.
        _, _, job_body = _request(
            service, "GET", f"/v1/jobs/{h2['X-Repro-Job']}"
        )
        manifest = json.loads(job_body)
        assert manifest["state"] == "done"
        assert manifest["counters"]["cas_hits"] == 1

    def test_cold_body_matches_cli_run_json(self, service, capsys):
        body = {"experiment": "table4", "quick": True}
        _, headers, served = _request(service, "POST", "/v1/run", body)
        assert main(["run", "table4", "--quick", "--json"]) == 0
        cli_out = capsys.readouterr().out
        # Manifests carry wall-clock times; everything else must match.
        assert _strip_manifest(served) == _strip_manifest(
            cli_out.encode("utf-8")
        )

    def test_concurrent_identical_requests_one_simulation(self, service):
        body = {
            "experiment": "fig10",
            "quick": True,
            "persona": "chip3",
        }
        n = 4
        results: list[tuple] = [None] * n
        barrier = threading.Barrier(n)

        def worker(i: int) -> None:
            barrier.wait()
            results[i] = _request(service, "POST", "/v1/run", body)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert all(r[0] == 200 for r in results)
        paths = sorted(r[1]["X-Repro-Cache"] for r in results)
        assert paths.count("miss") == 1  # exactly one simulation
        assert set(paths) <= {"miss", "coalesced", "hit"}
        bodies = {r[2] for r in results}
        assert len(bodies) == 1  # all responses bit-identical

    def test_ctl_experiment_reachable_and_cached(self, service):
        """The governor scenarios are ordinary registered experiments:
        the daemon runs them cold, caches by content, and replays the
        stored bytes warm."""
        body = {"experiment": "ctl_powercap", "quick": True}
        s1, h1, b1 = _request(service, "POST", "/v1/run", body)
        assert s1 == 200
        assert h1["X-Repro-Cache"] == "miss"
        doc = _strip_manifest(b1)
        assert doc["experiment_id"] == "ctl_powercap"
        assert [row[0] for row in doc["rows"]] == [
            "uncapped", "reactive", "pi",
        ]
        s2, h2, b2 = _request(service, "POST", "/v1/run", body)
        assert s2 == 200
        assert h2["X-Repro-Cache"] == "hit"
        assert b1 == b2

    def test_unknown_experiment_400_names_known(self, service):
        status, _, body = _request(
            service, "POST", "/v1/run", {"experiment": "fig99"}
        )
        assert status == 400
        error = json.loads(body)["error"]
        assert "fig99" in error["message"]
        assert "fig8" in error["known"]

    def test_unknown_field_400_names_allowed(self, service):
        status, _, body = _request(
            service,
            "POST",
            "/v1/run",
            {"experiment": "fig8", "fast": True},
        )
        assert status == 400
        assert "fast" in json.loads(body)["error"]["message"]

    def test_missing_body_400(self, service):
        status, _, _ = _request(service, "POST", "/v1/run")
        assert status == 400


# ---------------------------------------------------------------- /v1/sweep
SPEC_DOC = {
    "schema_version": SWEEPSPEC_SCHEMA_VERSION,
    "workload": "mem_l2",
    "personas": ["chip2"],
    "vdd": [1.0],
    "freq_mhz": [500.0, 700.0],
    "quick": True,
}


class TestSweepEndpoint:
    def test_cold_then_warm_sweep(self, service):
        s1, h1, b1 = _request(service, "POST", "/v1/sweep", SPEC_DOC)
        assert s1 == 200
        assert h1["X-Repro-Cache"] == "miss"
        doc = json.loads(b1)
        assert doc["workload"] == "mem_l2"
        assert doc["points"] == 2
        assert len(doc["records"]) == 2
        assert doc["spec_digest"] == SweepSpec.from_dict(
            SPEC_DOC
        ).digest()
        assert doc["cache"] == {"hits": 0, "misses": 2}

        s2, h2, b2 = _request(service, "POST", "/v1/sweep", SPEC_DOC)
        assert s2 == 200
        assert h2["X-Repro-Cache"] == "hit"
        assert b1 == b2

    def test_overlapping_grid_reuses_points(self, service):
        """A different spec sharing 2 of 3 points pays for one new
        simulation only — per-point CAS keying, not per-sweep."""
        bigger = dict(SPEC_DOC, freq_mhz=[500.0, 700.0, 850.0])
        status, headers, body = _request(
            service, "POST", "/v1/sweep", bigger
        )
        assert status == 200
        assert headers["X-Repro-Cache"] == "miss"  # new sweep digest
        doc = json.loads(body)
        assert doc["cache"] == {"hits": 2, "misses": 1}

    def test_invalid_spec_400_with_field_details(self, service):
        bad = dict(SPEC_DOC, vdd=[9.9])
        status, _, body = _request(service, "POST", "/v1/sweep", bad)
        assert status == 400
        error = json.loads(body)["error"]
        assert error["spec_field"] == "vdd"
        assert "plausible range" in error["problem"]

    def test_bad_tier_query_400(self, service):
        status, _, body = _request(
            service, "POST", "/v1/sweep?tier=warp", SPEC_DOC
        )
        assert status == 400
        assert "tier" in json.loads(body)["error"]["message"]


# ------------------------------------------------------------------ job API
class TestJobEndpoints:
    def test_job_lifecycle_and_events(self, service):
        _, headers, _ = _request(
            service,
            "POST",
            "/v1/run",
            {"experiment": "table10", "quick": True},
        )
        job_id = headers["X-Repro-Job"]
        status, _, body = _request(service, "GET", f"/v1/jobs/{job_id}")
        assert status == 200
        doc = json.loads(body)
        assert doc["job_id"] == job_id
        assert doc["state"] == "done"
        assert doc["kind"] == "run"
        assert isinstance(doc["events"], list)

    def test_stream_ends_with_manifest(self, service):
        _, headers, _ = _request(
            service,
            "POST",
            "/v1/run",
            {"experiment": "table8", "quick": True},
        )
        job_id = headers["X-Repro-Job"]
        status, stream_headers, body = _request(
            service, "GET", f"/v1/jobs/{job_id}?stream=1"
        )
        assert status == 200
        assert "ndjson" in stream_headers["Content-Type"]
        lines = [
            json.loads(line)
            for line in body.decode("utf-8").splitlines()
            if line
        ]
        assert lines[-1]["event"] == "end"
        assert lines[-1]["manifest"]["state"] == "done"

    def test_unknown_job_404(self, service):
        status, _, _ = _request(service, "GET", "/v1/jobs/job-9999")
        assert status == 404

    def test_jobs_visible_in_status(self, service):
        _, _, body = _request(service, "GET", "/v1/status")
        jobs = json.loads(body)["jobs"]
        assert jobs, "previous tests' jobs should be listed"
        assert all(j["state"] in ("done", "failed") for j in jobs)


# ---------------------------------------------------------------- CLI twins
class TestCliSpecPaths:
    def test_sweep_spec_file_runs(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SPEC_DOC))
        assert main(["sweep", "--spec", str(path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["workload"] == "mem_l2"
        assert doc["points"] == 2
        assert doc["spec"] == SweepSpec.from_dict(SPEC_DOC).to_dict()

    def test_sweep_workload_and_spec_conflict(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SPEC_DOC))
        assert main(["sweep", "mem_l2", "--spec", str(path)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_sweep_invalid_spec_exit_2_names_field(
        self, tmp_path, capsys
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict(SPEC_DOC, vdd="high")))
        assert main(["sweep", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "vdd" in err

    def test_serve_dry_run_describes_spec(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SPEC_DOC))
        assert main(["serve", "--dry-run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "mem_l2" in out
        assert "points" in out
        assert SweepSpec.from_dict(SPEC_DOC).digest() in out

    def test_serve_dry_run_invalid_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["serve", "--dry-run", str(path)]) == 2
        assert "error" in capsys.readouterr().err
