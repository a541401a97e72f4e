"""Benchmark: supervision and journaling must be near-zero overhead.

The resilience layer's contract is "near zero cost": journaling a
serial run costs only its appends, and a supervised pool run costs
only its heartbeat bookkeeping on top of a bare
``multiprocessing.Pool``. This benchmark times the same fixed grid
under each execution mode and bounds the overhead ratios; the
per-mode wall times land in the pytest-benchmark report.
"""

from __future__ import annotations

import multiprocessing
import time

from repro.experiments.parallel import _simulate_stripped, parallel_simulate
from repro.resilience import CheckpointJournal, Supervision
from repro.silicon.variation import CHIP3
from repro.system import PitonSystem
from repro.workloads.microbench import hist_workload, microbench_core_ids

#: Generous bound: the claim is "<5%" on a quiet machine; CI boxes are
#: not quiet machines, so the hard gate only catches regressions that
#: would actually hurt (an accidental serialization, a sync stall).
MAX_OVERHEAD_RATIO = 1.25

REPEATS = 3


def _grid():
    system = PitonSystem.default(persona=CHIP3, seed=13)
    return [
        system.sim_request(
            hist_workload(microbench_core_ids(tiles), 1).tiles,
            warmup_cycles=2_000,
            window_cycles=8_000,
        )
        for tiles in (2, 3, 4, 5, 6, 7, 8, 9)
    ]


def _best_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_serial_journal_overhead(benchmark, tmp_path):
    requests = _grid()

    def legacy():
        list(parallel_simulate(requests, jobs=1))

    def journaled():
        journal = CheckpointJournal(tmp_path / "bench", resume=False)
        list(
            parallel_simulate(
                requests,
                jobs=1,
                supervision=Supervision(journal=journal),
            )
        )

    baseline = _best_of(legacy)
    benchmark.pedantic(journaled, rounds=REPEATS, iterations=1)
    supervised = min(b for b in benchmark.stats.stats.data)
    ratio = supervised / baseline
    print(
        f"\nserial: legacy {baseline:.3f}s, journaled {supervised:.3f}s "
        f"(ratio {ratio:.3f})"
    )
    assert ratio < MAX_OVERHEAD_RATIO


def test_bench_supervised_pool_overhead(benchmark):
    requests = _grid()

    def bare_pool():
        pool = multiprocessing.Pool(4)
        pool.map(_simulate_stripped, requests)
        pool.close()
        pool.join()

    def supervised_pool():
        list(
            parallel_simulate(
                requests, jobs=4, supervision=Supervision()
            )
        )

    baseline = _best_of(bare_pool)
    benchmark.pedantic(supervised_pool, rounds=REPEATS, iterations=1)
    supervised = min(b for b in benchmark.stats.stats.data)
    ratio = supervised / baseline
    print(
        f"\npooled: bare Pool {baseline:.3f}s, supervised "
        f"{supervised:.3f}s (ratio {ratio:.3f})"
    )
    assert ratio < MAX_OVERHEAD_RATIO
