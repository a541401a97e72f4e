"""Coarse performance floor for the simulator's hot loop.

The issue loop is the repo's main cost center; the experiments in
EXPERIMENTS.md are only practical because it sustains a healthy
simulated-instructions-per-second rate. This smoke test runs a fixed
409,608-instruction multicore workload and asserts a deliberately
generous floor — two orders of magnitude below current throughput — so
it only trips on a genuine hot-loop regression (e.g. reintroducing
per-event ledger hashing or per-cycle opcode lookups), never on CI
machine jitter.
"""

from __future__ import annotations

import time

from repro.system import PitonSystem
from repro.workloads.base import TileProgram
from repro.workloads.microbench import PATTERN_A, PATTERN_B, int_program

#: Simulated instructions per wall-clock second the hot loop must beat.
#: This workload runs at about 4.8M/s on a 2-CPU x86-64 VM
#: (Python 3.11): its Int loops issue almost entirely as blocks.
MIN_INSTRUCTIONS_PER_SECOND = 50_000


def test_hot_loop_throughput_floor():
    # 4 cores x 2 threads x 51,201 instructions each = 409,608
    # instructions of the Int microbenchmark (ALU-heavy).
    iterations = 1_600
    tile = TileProgram(
        programs=[int_program(iterations), int_program(iterations)],
        init_regs={8: PATTERN_A, 9: PATTERN_B, 31: 1},
    )
    system = PitonSystem.default(seed=0)

    start = time.perf_counter()
    run = system.run_to_completion({t: tile for t in range(4)})
    elapsed = time.perf_counter() - start

    assert run.result.completed
    assert run.result.instructions >= 100_000
    ips = run.result.instructions / elapsed
    assert ips >= MIN_INSTRUCTIONS_PER_SECOND, (
        f"hot loop regressed: {ips:,.0f} simulated instr/s "
        f"(floor {MIN_INSTRUCTIONS_PER_SECOND:,})"
    )
