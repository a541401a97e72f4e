"""Property: stepping only due cores changes nothing but the cost.

:class:`~repro.core.multicore.MulticoreEngine` steps a core only when
its next event is due (or while it drains its store buffer) and
charges every visited cycle it sits out as a stall cycle.
:func:`lockstep_run` below is the reference it must equal: the loop
that steps every active core at every visited cycle. Over random
multi-core programs mixing long-latency divides, loads, stores and
``cas`` to shared lines, both must leave the same ledger (key order
included), per-core and per-thread statistics, run result, engine
clock, architectural state and invariant-check counts.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given
from hypothesis import strategies as st

from repro.check import CheckSuite
from repro.core.multicore import MulticoreEngine, RunResult
from repro.isa.program import Instruction, Program

#: Registers holding the shared base addresses: every core's memory
#: ops land on the same few lines, so coherence traffic is real.
BASE, CAS_BASE = 10, 11
INIT_REGS = {BASE: 0x1000, CAS_BASE: 0x1040, 1: 3, 2: 5, 3: 7}
INIT_FREGS = {1: 1.5, 2: -0.75, 3: 3.0}

REG = st.integers(1, 7)
OFFSET = st.sampled_from([0, 8, 16, 24, 64, 72])

instructions = st.one_of(
    st.builds(Instruction, op=st.sampled_from(["add", "xor", "sub"]),
              rd=REG, rs1=REG, rs2=REG),
    st.builds(Instruction, op=st.just("sdivx"), rd=REG, rs1=REG, rs2=REG),
    st.builds(Instruction, op=st.just("fdivd"), rd=REG, rs1=REG, rs2=REG),
    st.builds(Instruction, op=st.just("ldx"), rd=REG, rs1=st.just(BASE),
              imm=OFFSET),
    st.builds(Instruction, op=st.just("stx"), rs1=REG, rs2=st.just(BASE),
              imm=OFFSET),
    st.builds(Instruction, op=st.just("cas"), rd=REG,
              rs1=st.just(CAS_BASE), rs2=REG),
)
thread_programs = st.lists(instructions, min_size=1, max_size=25)
core_programs = st.lists(thread_programs, min_size=1, max_size=2)
workloads = st.dictionaries(
    st.integers(0, 24), core_programs, min_size=1, max_size=4
)


def lockstep_run(
    engine: MulticoreEngine,
    cycles: int | None = None,
    until_done: bool = False,
    max_cycles: int = 50_000_000,
) -> RunResult:
    """``engine.run`` as it was before due-core stepping: every active
    core steps at every visited cycle."""
    assert cycles is not None or until_done
    start_cycle = engine.now
    start_instrs = engine.total_instructions
    deadline = None if cycles is None else engine.now + cycles
    cores = list(engine.cores.values())
    active = [c for c in cores if not c.done]
    far_future = 1 << 62
    ff_stall_events = 0
    checker = engine.checker
    next_check = (
        engine.now + engine.CHECK_INTERVAL
        if checker is not None
        else far_future
    )
    try:
        while active:
            now = engine.now
            if checker is not None and now >= next_check:
                checker.check_engine(engine)
                next_check = now + engine.CHECK_INTERVAL
            if deadline is not None and now >= deadline:
                break
            if now - start_cycle >= max_cycles:
                raise RuntimeError("workload did not finish")
            next_now = far_future
            finished = False
            for core in active:
                next_event = core.step(now)
                if core.done:
                    finished = True
                elif next_event < next_now:
                    next_now = next_event
            if finished:
                active = [c for c in active if not c.done]
                if not active:
                    engine.now = now + 1
                    break
            if deadline is not None and next_now > deadline:
                next_now = deadline
            skipped = next_now - now - 1
            if skipped > 0:
                for core in active:
                    core.stats.cycles += skipped
                    core.stats.stall_cycles += skipped
                ff_stall_events += skipped * len(active)
            engine.now = next_now if next_now > now + 1 else now + 1
    finally:
        if ff_stall_events:
            engine.ledger.record("core.stall_cycle", ff_stall_events)
        for core in cores:
            core.flush_events()
    if checker is not None:
        checker.check_engine(engine)
    return RunResult(
        cycles=engine.now - start_cycle,
        instructions=engine.total_instructions - start_instrs,
        completed=all(c.done for c in cores),
    )


def build(workload: dict[int, list[list[Instruction]]]) -> MulticoreEngine:
    checker = CheckSuite()
    engine = MulticoreEngine(checker=checker)
    engine.memsys.checker = checker
    # Sweep often so the check schedule itself is compared.
    engine.CHECK_INTERVAL = 64
    for tile, threads in workload.items():
        engine.add_core(
            tile,
            [Program(list(instrs)) for instrs in threads],
            init_regs=INIT_REGS,
            init_fregs=INIT_FREGS,
        )
    return engine


def snapshot(engine: MulticoreEngine, result: RunResult) -> dict:
    ledger = engine.ledger
    return {
        "result": result,
        "now": engine.now,
        "counts": list(ledger.counts.items()),
        "weights": list(ledger.weights.items()),
        "cores": [
            (
                tile,
                dataclasses.asdict(core.stats),
                core.done,
                [
                    (dataclasses.asdict(t.stats), t.pc, t.ready_at,
                     list(t.regs), [f.hex() for f in t.fregs])
                    for t in core.threads
                ],
            )
            for tile, core in engine.cores.items()
        ],
        "memory": sorted(engine.memory._words.items()),
        "checks": engine.checker.summary(),
    }


@given(workloads)
def test_due_stepping_equals_lockstep_to_completion(workload):
    engine, reference = build(workload), build(workload)
    got = engine.run(until_done=True, max_cycles=1_000_000)
    want = lockstep_run(reference, until_done=True, max_cycles=1_000_000)
    assert got.completed
    assert snapshot(engine, got) == snapshot(reference, want)


@given(workloads, st.integers(1, 400), st.integers(1, 400))
def test_due_stepping_equals_lockstep_warmup_and_window(
    workload, warmup, window
):
    engine, reference = build(workload), build(workload)
    got = engine.run(cycles=warmup)
    want = lockstep_run(reference, cycles=warmup)
    assert snapshot(engine, got) == snapshot(reference, want)
    got = engine.run(cycles=window)
    want = lockstep_run(reference, cycles=window)
    assert snapshot(engine, got) == snapshot(reference, want)
