"""Parallel simulation fan-out must be bit-identical to serial.

The guarantee the parallel layer makes (see
``repro.experiments.parallel``) is not "statistically equivalent" but
*bit-identical*: the simulator consumes no randomness, so fanning the
per-point simulations across a process pool and replaying the
measurements serially in submission order reproduces the serial run
exactly — same event ledgers, same rendered tables.
"""

from __future__ import annotations

from repro.experiments import RunContext, fig13_scaling
from repro.experiments.parallel import parallel_simulate
from repro.silicon.variation import CHIP3
from repro.system import PitonSystem
from repro.workloads.microbench import hist_workload, microbench_core_ids


def _hist_requests(system: PitonSystem):
    """A few multi-tile coherent points: the Hist microbenchmark keeps
    shared histogram buckets behind cas locks, so its ledger exercises
    cross-tile coherence traffic, atomics, and store drains."""
    return [
        system.sim_request(
            hist_workload(microbench_core_ids(count), tpc).tiles,
            warmup_cycles=1_500,
            window_cycles=2_000,
        )
        for count, tpc in ((4, 1), (9, 2), (13, 1))
    ]


def test_pool_ledgers_identical_to_serial():
    system = PitonSystem.default(persona=CHIP3, seed=13)
    serial = list(parallel_simulate(_hist_requests(system), jobs=1))
    pooled = list(parallel_simulate(_hist_requests(system), jobs=4))

    assert len(serial) == len(pooled) == 3
    for ser, par in zip(serial, pooled):
        # Exact equality, including insertion order of the event names
        # (the power model's float accumulation is order-sensitive).
        assert list(ser.ledger.counts) == list(par.ledger.counts)
        assert ser.ledger.as_dict() == par.ledger.as_dict()
        assert dict(ser.ledger.weights) == dict(par.ledger.weights)
        assert ser.result.cycles == par.result.cycles
        assert ser.result.instructions == par.result.instructions


def test_fig13_quick_table_identical_serial_vs_jobs4(quick_result):
    serial = quick_result("fig13")
    pooled = fig13_scaling.run(RunContext(quick=True, jobs=4))
    assert serial.render() == pooled.render()
    assert serial.series == pooled.series
