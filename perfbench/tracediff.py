#!/usr/bin/env python3
"""Diff two traced benchmark runs layer by layer.

    python3 perfbench/tracediff.py BEFORE.json AFTER.json

Both files are reports written by ``run.py --trace 1`` (under
``.perfbench/``). For the workload they measured, the diff prints each
layer's self time, calls and counts per traced pass, before and after,
with the change. It refuses two runs whose stamps differ in anything
but the git rev: a diff across workloads, seeds, sizes, machines or
library versions would not isolate the code change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.layers import per_pass  # noqa: E402


def load(path: str) -> dict:
    with open(path) as handle:
        report = json.load(handle)
    if not report.get("trace") or "layers" not in report:
        raise ValueError(f"{path} is not a traced run (run.py --trace 1)")
    return report


def stamp_mismatch(a: dict, b: dict) -> list[str]:
    keys = (set(a) | set(b)) - {"rev"}
    return sorted(k for k in keys if a.get(k) != b.get(k))


def _per_pass(report: dict) -> dict[str, dict]:
    traced = sum(1 for p in report["passes"] if p["traced"])
    return per_pass(report["layers"], traced)


def _change(before: float, after: float) -> str:
    if before == after:
        return "="
    if not before:
        return "new"
    return f"{(after - before) / abs(before) * 100:+.1f}%"


def diff(a: dict, b: dict) -> list[str]:
    pa, pb = _per_pass(a), _per_pass(b)
    stamp = a["stamp"]
    lines = [
        f"workload {stamp['workload']} seed {stamp['seed']} size "
        f"{stamp['size']}: {a['stamp']['rev'][:12]} -> {b['stamp']['rev'][:12]}"
        " (per traced pass)",
        f"{'layer':12s} {'metric':22s} {'before':>14s} {'after':>14s} "
        f"{'change':>9s}",
    ]
    for layer in sorted(set(pa) | set(pb)):
        ra, rb = pa.get(layer, {}), pb.get(layer, {})
        first = ["self_s", "calls"]
        for key in first + sorted((set(ra) | set(rb)) - set(first)):
            before, after = ra.get(key, 0.0), rb.get(key, 0.0)
            lines.append(
                f"{layer:12s} {key:22s} {before:14.6g} {after:14.6g} "
                f"{_change(before, after):>9s}"
            )
    pass_a = [p["pass_s"] for p in a["passes"] if p["traced"]]
    pass_b = [p["pass_s"] for p in b["passes"] if p["traced"]]
    mean_a, mean_b = sum(pass_a) / len(pass_a), sum(pass_b) / len(pass_b)
    lines.append(
        f"{'(pass)':12s} {'wall_s':22s} {mean_a:14.6g} {mean_b:14.6g} "
        f"{_change(mean_a, mean_b):>9s}"
    )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    try:
        a, b = load(args.before), load(args.after)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    mismatch = stamp_mismatch(a["stamp"], b["stamp"])
    if mismatch:
        detail = ", ".join(
            f"{k}: {a['stamp'].get(k)!r} vs {b['stamp'].get(k)!r}"
            for k in mismatch
        )
        print(f"error: stamps differ beyond the rev ({detail})", file=sys.stderr)
        return 2
    print("\n".join(diff(a, b)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
