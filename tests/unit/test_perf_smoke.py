"""Coarse performance floors for the simulator's hot loop.

The issue loop is the repo's main cost center; the experiments in
EXPERIMENTS.md are only practical because it sustains a healthy
simulated-instructions-per-second rate. Four fixed workloads guard
its four paths:

* a 409,608-instruction Int workload, which issues almost entirely as
  compiled blocks of register-only instructions;
* a counted loop of Figure 11's ``ldx`` EPI body on 4 cores, which
  issues one memory op per step and, its counter changing every
  iteration, never repeats exactly: the per-instruction ``Core.step``
  path;
* Figure 11's endless ``ldx`` EPI loop on 4 cores, whose iterations
  repeat exactly once its lines are in the L1D: its cores park, and
  their iterations are accounted in bulk;
* a Hist workload, whose threads spin on a ``cas`` lock: its cores
  park while every thread of them spins.

A fifth floor guards the governor's 17 Hz loop: a ``pi_cap`` scenario
read through seeded telemetry, which prices the plant about six times
a tick. A sixth guards the flit-level mesh: a Figure 12 stream, paced
and drained cycle by cycle.

Each floor is deliberately generous — about two orders of magnitude
below current throughput — so it only trips on a genuine hot-loop
regression (e.g. reintroducing per-event ledger hashing or per-cycle
opcode lookups), never on CI machine jitter.
"""

from __future__ import annotations

import dataclasses
import time

from repro.governor import ScenarioSpec, run_scenario
from repro.isa.program import Instruction, flat_program
from repro.system import PitonSystem
from repro.workloads.base import TileProgram
from repro.workloads.epi_tests import build_epi_workload
from repro.workloads.noc_tests import run_noc_stream
from repro.workloads.microbench import (
    PATTERN_A,
    PATTERN_B,
    hist_workload,
    int_program,
    microbench_core_ids,
)
from repro.isa.operands import OperandPolicy

#: Simulated instructions per wall-clock second the hot loop must beat.
#: This workload runs at about 3.1M/s on a 2-CPU x86-64 VM
#: (Python 3.11): its Int loops issue almost entirely as blocks.
MIN_INSTRUCTIONS_PER_SECOND = 50_000

#: The same floor for the per-instruction path. Four cores of the
#: counted ``ldx`` loop over a 40,000-cycle window issue 51,659
#: instructions, one per step, at about 140k/s on a 2-CPU x86-64 VM
#: (Python 3.11).
MIN_STEPPED_INSTRUCTIONS_PER_SECOND = 1_500

#: The floor for parked fixed-point loops. Four cores of the endless
#: ``ldx`` EPI loop over the same window issue 50,097 instructions,
#: almost all of them parked, at about 6.8M/s on a 2-CPU x86-64 VM
#: (Python 3.11).
MIN_PARKED_INSTRUCTIONS_PER_SECOND = 60_000

#: The floor for parked spinning. 24 Hist threads on 12 cores over 256
#: elements issue 52,572 instructions, most of them spin iterations
#: accounted in bulk, at about 315k/s on a 2-CPU x86-64 VM (Python
#: 3.11).
MIN_SPIN_INSTRUCTIONS_PER_SECOND = 3_000

#: The floor for the governed loop, in 17 Hz ticks per wall-clock
#: second. The PI cap scenario below runs 2,040 ticks, each pricing the
#: plant about 6 times and reading the board's monitors once, at about
#: 57k ticks/s on a 2-CPU x86-64 VM (Python 3.11).
MIN_GOVERNED_TICKS_PER_SECOND = 500

#: The floor for the mesh, in flit-hops per wall-clock second. 60 FSWA
#: packets of 7 flits streamed 4 hops make 1,680 flit-hops over 2,820
#: cycles, at about 110k flit-hops/s on a 2-CPU x86-64 VM (Python
#: 3.11).
MIN_STREAM_FLIT_HOPS_PER_SECOND = 1_000


def _timed_run(tiles):
    system = PitonSystem.default(seed=0)
    start = time.perf_counter()
    run = system.run_to_completion(tiles)
    return run, time.perf_counter() - start


def test_hot_loop_throughput_floor():
    # 4 cores x 2 threads x 51,201 instructions each = 409,608
    # instructions of the Int microbenchmark (ALU-heavy).
    iterations = 1_600
    tile = TileProgram(
        programs=[int_program(iterations), int_program(iterations)],
        init_regs={8: PATTERN_A, 9: PATTERN_B, 31: 1},
    )
    run, elapsed = _timed_run({t: tile for t in range(4)})

    assert run.result.completed
    assert run.result.instructions >= 100_000
    ips = run.result.instructions / elapsed
    assert ips >= MIN_INSTRUCTIONS_PER_SECOND, (
        f"hot loop regressed: {ips:,.0f} simulated instr/s "
        f"(floor {MIN_INSTRUCTIONS_PER_SECOND:,})"
    )


def _ldx_window(counted: bool):
    """Four cores of the ``ldx`` EPI loop over a 40,000-cycle window;
    ``counted`` runs its body in a loop whose counter changes every
    iteration."""
    tiles = {}
    for tile in range(4):
        program = build_epi_workload("ldx", OperandPolicy.RANDOM, tile)[1]
        if counted:
            loads = program.programs[0].instructions[:-1]
            program = dataclasses.replace(program, programs=[flat_program(
                [Instruction("set", rd=1, imm=1 << 20)] + loads
                + [Instruction("sub", rd=1, rs1=1, imm=1),
                   Instruction("bne", rs1=1, target=1)]
            )])
        tiles[tile] = program
    system = PitonSystem.default(seed=0)
    start = time.perf_counter()
    run = system.run_workload(tiles, warmup_cycles=100,
                              window_cycles=40_000)
    return run, time.perf_counter() - start


def test_stepped_issue_throughput_floor():
    run, elapsed = _ldx_window(counted=True)

    assert run.result.instructions >= 40_000
    ips = run.result.instructions / elapsed
    assert ips >= MIN_STEPPED_INSTRUCTIONS_PER_SECOND, (
        f"per-instruction issue regressed: {ips:,.0f} simulated "
        f"instr/s (floor {MIN_STEPPED_INSTRUCTIONS_PER_SECOND:,})"
    )


def test_parked_loop_throughput_floor():
    run, elapsed = _ldx_window(counted=False)

    assert run.result.instructions >= 40_000
    ips = run.result.instructions / elapsed
    assert ips >= MIN_PARKED_INSTRUCTIONS_PER_SECOND, (
        f"parked fixed-point loops regressed: {ips:,.0f} simulated "
        f"instr/s (floor {MIN_PARKED_INSTRUCTIONS_PER_SECOND:,})"
    )


def test_parked_spin_throughput_floor():
    work = hist_workload(
        microbench_core_ids(12),
        2,
        total_elements=256,
        repeat_forever=False,
    )
    run, elapsed = _timed_run(work.tiles)

    assert run.result.completed
    assert run.result.instructions >= 50_000
    ips = run.result.instructions / elapsed
    assert ips >= MIN_SPIN_INSTRUCTIONS_PER_SECOND, (
        f"parked spinning regressed: {ips:,.0f} simulated instr/s "
        f"(floor {MIN_SPIN_INSTRUCTIONS_PER_SECOND:,})"
    )


def test_governed_tick_throughput_floor():
    spec = ScenarioSpec(
        name="floor",
        policy="pi_cap",
        persona="chip2",
        duration_s=120.0,
        phases=((0.0, 0.9), (60.0, 2.2)),
        cap_w=3.5,
        sensor_seed=2018,
    )
    start = time.perf_counter()
    trace = run_scenario(spec)
    elapsed = time.perf_counter() - start

    assert len(trace.samples) == 2_040
    rate = len(trace.samples) / elapsed
    assert rate >= MIN_GOVERNED_TICKS_PER_SECOND, (
        f"governed loop regressed: {rate:,.0f} ticks/s "
        f"(floor {MIN_GOVERNED_TICKS_PER_SECOND:,})"
    )


def test_mesh_stream_throughput_floor():
    start = time.perf_counter()
    run = run_noc_stream("FSWA", 4, 60)
    elapsed = time.perf_counter() - start

    assert run.packets_delivered == 60
    flit_hops = run.ledger.count("noc2.flit_hop")
    assert flit_hops == 60 * 7 * 4
    rate = flit_hops / elapsed
    assert rate >= MIN_STREAM_FLIT_HOPS_PER_SECOND, (
        f"mesh stream regressed: {rate:,.0f} flit-hops/s "
        f"(floor {MIN_STREAM_FLIT_HOPS_PER_SECOND:,})"
    )
