"""Tests of the benchmark itself (not collected by the repo's tier-1
run, whose testpaths are ``tests/``):

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, workloads  # noqa: E402
from perfbench.run import DEFAULT_SEED, END_TO_END, OUT_DIR, Harness  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--size", "tiny",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def results(request):
    return request.param, _run(request.param, 0), _run(request.param, 1)


def _declared(kind: str) -> dict[str, tuple[str, str]]:
    return {m["name"]: (m["unit"], m["better"]) for m in DECLARED[kind]}


def test_tiny_run_passes_its_checks(results):
    _, plain, traced = results
    for result in (plain, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] >= 1


def test_every_printed_metric_is_declared(results):
    _, plain, traced = results
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        declared = _declared(kind)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        assert printed == {k: unit for k, (unit, _) in declared.items()}


def test_declared_directions_match_the_code():
    assert _declared("end_to_end") == {
        name: (unit, better) for name, unit, better in END_TO_END
    }
    assert _declared("per_layer") == {
        name: (unit, better) for name, unit, better in layers.PER_LAYER
    }
    assert [w["name"] for w in DECLARED["workloads"]] == list(
        workloads.WORKLOADS
    )


def test_layer_self_times_fit_in_traced_wall(results):
    _, _, traced = results
    metrics = {k: v["value"] for k, v in traced["metrics"].items()}
    layer_self = sum(
        v for k, v in metrics.items()
        if k.endswith(".self_s") and k != "other.self_s"
    )
    assert layer_self <= metrics["trace.wall_s"]
    assert metrics["other.self_s"] >= 0.0


def test_wrong_expected_digest_is_a_failed_op():
    wl = workloads.build("power_control", DEFAULT_SEED, "tiny", OUT_DIR / "tmp")
    first, *rest = [op for task in wl.tasks for op in task.op_ids]
    honest = Harness(wl, None)
    honest.run_pass()
    assert honest.failed == 0
    expected = dict(honest.digests)
    expected[first] = "0" * 16
    harness = Harness(wl, expected)
    harness.run_pass()
    assert harness.failed == 1
    assert harness.failures[0].startswith(f"{first}: digest")


def test_tracer_attributes_self_time_to_the_innermost_layer():
    class Outer:
        def run(self, inner):
            return inner.work() + inner.work()

    class Inner:
        def work(self):
            return 1

    tracer = layers.LayerTracer()
    tracer.install([(Outer, "run", "outer"), (Inner, "work", "inner")])
    try:
        tracer.begin_op("op")
        assert Outer().run(Inner()) == 2
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert Outer.run.__name__ == "run"
    totals = tracer.totals()
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["calls"] == 1
    outer = totals["outer"]
    assert outer["self_s"] == pytest.approx(
        outer["total_s"] - totals["inner"]["total_s"]
    )
    assert tracer.spans[0]["wall_s"] >= outer["total_s"]


def test_tracediff_refuses_runs_stamped_differently(tmp_path):
    report = {
        "trace": 1,
        "stamp": {"rev": "a", "nproc": 2, "python": "3", "numpy": "2",
                  "workload": "noc_stream", "seed": 0, "size": "tiny"},
        "passes": [{"pass_s": 1.0, "work": 1.0, "traced": True}],
        "layers": {"noc": {"calls": 4, "entries": 2, "total_s": 0.5,
                           "self_s": 0.4, "counts": {"flit_hops": 8}}},
    }
    after = json.loads(json.dumps(report))
    after["stamp"]["rev"] = "b"
    after["layers"]["noc"]["self_s"] = 0.2
    paths = []
    for name, doc in (("a", report), ("b", after)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    tool = [sys.executable, str(ROOT / "perfbench" / "tracediff.py")]
    same = subprocess.run(tool + [str(p) for p in paths],
                          capture_output=True, text=True)
    assert same.returncode == 0
    assert "-50.0%" in same.stdout
    after["stamp"]["seed"] = 1
    paths[1].write_text(json.dumps(after))
    other = subprocess.run(tool + [str(p) for p in paths],
                           capture_output=True, text=True)
    assert other.returncode == 2
    assert "seed" in other.stderr
