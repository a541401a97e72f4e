#!/usr/bin/env python3
"""Regenerate ``digests.json``: every op's output digest at the
default seed, for each size and workload.

    python3 perfbench/bless.py

Run it only after a change that is meant to move simulated results,
and review the diff: ``run.py`` counts every op whose digest differs
from the committed one as a failed op.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    from perfbench import workloads
    from perfbench.run import DEFAULT_SEED, DIGESTS, OUT_DIR, SIZES, Harness

    scratch = OUT_DIR / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    table: dict[str, dict[str, dict[str, str]]] = {}
    for size in SIZES:
        for name in workloads.WORKLOADS:
            harness = Harness(
                workloads.build(name, DEFAULT_SEED, size, scratch), None
            )
            harness.run_pass()
            if harness.failed:
                print(f"{size} {name}: {harness.failures}", file=sys.stderr)
                return 1
            table.setdefault(size, {})[name] = harness.digests
            print(f"{size} {name}: {len(harness.digests)} ops")
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
