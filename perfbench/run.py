#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload noc_stream --seed 0 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from
``src/``. The workload's seeded op list (one *pass*) runs back to
back until ``--seconds`` have elapsed, always finishing the pass it is
in. Every op's output is checked between ops, outside the timed
region. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0`` reports the end-to-end metrics: ``run_cal_s`` (the
  median pass in calibrated seconds, below), ``setup_s`` (median of
  fresh interpreters from start to first op, also calibrated; its unit
  string stays ``s``), ``peak_rss_mb``,
  ``paper_err_pct`` and ``work_per_cal_s`` (simulated work per
  calibrated second, median pass);
* ``--trace 1`` alternates untraced and traced passes and reports the
  per-layer metrics per traced pass (see ``layers.py``).

Calibrated seconds: the host this runs on changes speed by tens of
percent over minutes, which no amount of repetition averages out.
Right before every op the harness times a fixed pure-Python reference
kernel (independent of the program) and scales the op's host time by
``REF_S / reference time``: a calibrated second is a host second on a
host where the kernel takes exactly ``REF_S``. Raw seconds are printed
and kept in the report beside them.

Each run also writes its stamped result (and, traced, its per-op
spans) to ``.perfbench/`` for ``perfbench/tracediff.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

OUT_DIR = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
#: The seed whose per-op digests are committed in ``digests.json``.
DEFAULT_SEED = 0
#: ``tiny`` is the smallest run (tests); ``full`` is the default.
SIZES = ("tiny", "full")
#: Fresh interpreters timed from start to first op; ``setup_s`` is
#: their median.
SETUP_PROBES = 5

#: The reference kernel's time on the host calibrated seconds are
#: quoted for (a 2-CPU x86-64 Linux VM, Python 3.11). Fixed: changing
#: it rescales every calibrated figure.
REF_S = 1.5e-3

#: ``(metric, unit, better)`` for every end-to-end metric.
END_TO_END = [
    ("run_cal_s", "cal_s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("paper_err_pct", "%", "lower"),
    ("work_per_cal_s", "1/cal_s", "higher"),
]


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, nxt: "_Node | None"):
        self.key = key
        self.value = value
        self.next = nxt


def _reference_work() -> int:
    """Fixed object-, dict- and branch-heavy work in the style of the
    simulator's inner loops, touching nothing of the program."""
    rng = random.Random(7)
    table: dict[int, _Node] = {}
    head = None
    total = 0
    for i in range(1000):
        key = rng.randrange(512)
        node = table.get(key)
        if node is None:
            head = table[key] = _Node(key, i, head)
        else:
            node.value = (node.value * 31 + i) & 0xFFFF
        if i % 7 == 0:
            total += sum(n.value for n in list(table.values())[:8])
    while head is not None:
        total ^= head.value
        head = head.next
    return total


def reference_seconds() -> float:
    """Host seconds the reference kernel takes right now."""
    start = time.perf_counter()
    _reference_work()
    return time.perf_counter() - start


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument(
        "--setup-probe", action="store_true", help=argparse.SUPPRESS
    )
    return parser.parse_args(argv)


def stamp(workload: str, seed: int, size: str) -> dict:
    """What a result depends on besides the code (rev) itself."""
    import numpy

    rev = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=False,
        )
        rev = done.stdout.strip() or rev
    return {
        "rev": rev,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "size": size,
    }


def expected_digests(workload: str, seed: int, size: str) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    table = json.loads(DIGESTS.read_text())
    return table.get(size, {}).get(workload)


class Harness:
    """Runs passes over a workload's tasks and checks every op."""

    def __init__(self, workload, expected: dict | None):
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.passes: list[dict] = []
        self.notes: list = []
        self.digests: dict[str, str] = {}

    def run_pass(self, tracer=None) -> dict:
        wl = self.workload
        first = not self.passes
        pass_s = pass_cal_s = work = 0.0
        refs = []
        for task in wl.tasks:
            self.attempted += task.ops
            refs.append(reference_seconds())
            if tracer is not None:
                tracer.begin_op(task.id, task.ops)
            start = time.perf_counter()
            try:
                result = wl.run(task)
            except Exception as exc:  # an op that raises is a failed op
                result = None
                traceback.print_exc()
                self._fail(task.op_ids, f"raised {exc!r}")
            elapsed = time.perf_counter() - start
            pass_s += elapsed
            pass_cal_s += elapsed * REF_S / refs[-1]
            if tracer is not None:
                # Counts the program reports only in its results land in
                # this op's span, so they are taken before it closes.
                if result is not None:
                    for layer, counts in wl.counts(task, result).items():
                        for key, n in counts.items():
                            tracer.count(layer, key, n)
                tracer.end_op()
            if result is not None:
                work += wl.work(task, result)
                self._inspect(task, result, first)
        record = {
            "pass_s": pass_s,
            "pass_cal_s": pass_cal_s,
            "ref_s": statistics.median(refs),
            "work": work,
            "traced": tracer is not None,
        }
        self.passes.append(record)
        return record

    def _inspect(self, task, result, first: bool) -> None:
        try:
            seen = self.workload.inspect(task, result)
        except Exception as exc:
            traceback.print_exc()
            self._fail(task.op_ids, f"check raised {exc!r}")
            return
        if first:
            self.notes.append(seen.note)
            self.digests.update(seen.digests)
        for op in task.op_ids:
            problems = list(seen.problems.get(op, []))
            if op not in seen.digests:
                problems.append("no output digest")
            elif self.expected is not None:
                want = self.expected.get(op)
                if want != seen.digests[op]:
                    problems.append(
                        f"digest {seen.digests[op]} != expected {want}"
                    )
            if problems:
                self._fail((op,), "; ".join(problems))

    def _fail(self, op_ids, why: str) -> None:
        self.failed += len(op_ids)
        for op in op_ids:
            if len(self.failures) < 20:
                self.failures.append(f"{op}: {why}")

    def run_for(self, seconds: float) -> None:
        deadline = time.monotonic() + seconds
        self.run_pass()
        while time.monotonic() < deadline:
            self.run_pass()


def build_workload(args, scratch: Path):
    from perfbench import workloads

    return workloads.build(args.workload, args.seed, args.size, scratch)


def setup_probe(args) -> tuple[float, float]:
    """One fresh interpreter doing the whole set-up; returns the host
    seconds from spawning it to its first op being ready, and the
    reference kernel's time right after."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size,
    ]
    start = time.monotonic()
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=120,
    )
    ready, ref_s = map(float, done.stdout.split()[-2:])
    return ready - start, ref_s


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(harness: Harness, setup_s: float, rss_mb: float,
               paper_err: float) -> dict:
    passes = [p for p in harness.passes if not p["traced"]]
    values = {
        "run_cal_s": statistics.median(p["pass_cal_s"] for p in passes),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "paper_err_pct": paper_err,
        "work_per_cal_s": statistics.median(
            p["work"] / p["pass_cal_s"] for p in passes
        ),
    }
    return {name: (values[name], unit) for name, unit, _ in END_TO_END}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program at {ROOT / 'src' / 'repro'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    scratch = OUT_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    if args.setup_probe:
        build_workload(args, scratch)
        ready = time.monotonic()
        ref_s = statistics.median(reference_seconds() for _ in range(3))
        print(ready, ref_s)
        return 0

    from perfbench.layers import LayerTracer, layer_boundaries, per_layer

    workload = build_workload(args, scratch)
    harness = Harness(
        workload, expected_digests(args.workload, args.seed, args.size)
    )
    tracer = None
    if args.trace:
        # Untraced and traced passes alternate, so the tracing overhead
        # compares passes run under the same conditions.
        tracer = LayerTracer()
        boundaries = layer_boundaries()
        deadline = time.monotonic() + args.seconds
        while not harness.passes or time.monotonic() < deadline:
            harness.run_pass()
            tracer.install(boundaries)
            try:
                harness.run_pass(tracer)
            finally:
                tracer.uninstall()
    else:
        harness.run_for(args.seconds)
    rss_mb = peak_rss_mb()
    probes = [setup_probe(args) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(raw * REF_S / ref for raw, ref in probes)
    setup_raw_s = statistics.median(raw for raw, _ in probes)
    try:
        paper_err, anchors = workload.paper(harness.notes)
    except (ArithmeticError, LookupError, ValueError) as exc:
        if not harness.failed:
            raise
        # Failed first-pass ops leave anchors without their points; the
        # run already reports incorrect.
        paper_err, anchors = -1.0, [f"not computed: {exc!r}"]

    if tracer is None:
        metrics = end_to_end(harness, setup_s, rss_mb, paper_err)
    else:
        metrics = per_layer(tracer, harness.passes, setup_raw_s)
    info = stamp(args.workload, args.seed, args.size)
    report = {
        "stamp": info,
        "trace": args.trace,
        "work_unit": workload.work_unit,
        "passes": harness.passes,
        "setup_probes": probes,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "failures": harness.failures,
        "anchors": anchors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer is not None:
        report["layers"] = tracer.totals()
        report["spans"] = tracer.spans
    name = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(report, indent=1))

    print(" ".join(f"{k}={v}" for k, v in info.items()))
    print(f"passes={len(harness.passes)} ops={harness.attempted} "
          f"failed={harness.failed} work unit: {workload.work_unit}")
    for line in harness.failures:
        print(f"FAILED {line}")
    for line in anchors:
        print(f"anchor: {line}")
    passes = harness.passes
    print(
        f"host (raw): set-up {setup_raw_s:.4g} s, median pass "
        f"{statistics.median(p['pass_s'] for p in passes):.4g} s, "
        f"{statistics.median(p['work'] / p['pass_s'] for p in passes):.4g} "
        f"{workload.work_unit} per s, reference kernel "
        f"{statistics.median(p['ref_s'] for p in passes) * 1e3:.3g} ms "
        f"(calibrated to {REF_S * 1e3:g} ms)"
    )
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    print(f"wrote {OUT_DIR / name}")
    print(json.dumps({
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
