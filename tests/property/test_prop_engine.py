"""Property: due-core stepping and block issue change nothing but cost.

:class:`~repro.core.multicore.MulticoreEngine` steps a core only when
its next event is due (or while it drains its store buffer), charges
every visited cycle it sits out as a stall cycle, and lets a step
issue a whole register-only block. :func:`lockstep_run` below is the
reference it must equal: every active core steps at every visited
cycle, through :func:`reference_step`, the per-instruction issue loop
(one instruction per step, no blocks). Over random multi-core programs
mixing long-latency divides, looping register-only runs, loads, stores
and ``cas`` to shared lines, at one and two threads per core, with
and without execution drafting, both must leave the same ledger (key
order included), per-core and per-thread statistics, run result,
engine clock, architectural state and invariant-check counts; and a
:class:`~repro.core.trace.TraceRecorder` on each engine core must
record the issues the reference makes, cycle for cycle.

Spin locks: threads on 2-8 cores take one lock with ``set; cas; bne``,
run a critical section of register ops and bucket loads and stores
(some on a line that shares the lock line's L2 set and home slice)
and release it with a ``stx`` of zero, a few times over. Threads swap
in different values and some spin paths change a register and change
it back, so some loops hold other registers partway round than the
failing ``cas`` left. The engine parks cores whose threads all spin
and accounts their iterations in bulk, so these cases also compare
the whole memory system: every L2 slice's sets in LRU order with
dirty bits, the directories, each tile's L1D and L1.5 lines with their
MESI states and every cache's statistics.
"""

from __future__ import annotations

import dataclasses

from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.check import CheckSuite
from repro.core.multicore import MulticoreEngine, RunResult
from repro.core.pipeline import _FAR_FUTURE, Core
from repro.core.storebuffer import StoreEntry
from repro.core.trace import TraceRecorder
from repro.isa.program import Instruction, Program

#: Registers holding the shared base addresses: every core's memory
#: ops land on the same few lines, so coherence traffic is real.
BASE, CAS_BASE = 10, 11
#: Loop counter of the looping programs (operands never touch it).
COUNTER = 30
#: Spin-lock registers: the lock word, the swap value, a register
#: that stays zero, one the spin path sets, and bucket lines in the
#: lock line's L2 set at the same home slice (6400 lines apart: 25
#: homes x 256 sets), four of them, so the 4-way set can evict it.
LOCK, SWAP, ZERO, SPIN_SCRATCH = 13, 8, 12, 15
CONFLICTS = (14, 16, 17, 18)
LOCK_ADDR = 0x3000
INIT_REGS = {BASE: 0x1000, CAS_BASE: 0x1040, 1: 3, 2: 5, 3: 7,
             LOCK: LOCK_ADDR}
INIT_REGS.update(
    (reg, LOCK_ADDR + 6400 * 64 * (k + 1)) for k, reg in enumerate(CONFLICTS)
)
INIT_FREGS = {1: 1.5, 2: -0.75, 3: 3.0}

REG = st.integers(1, 7)
OFFSET = st.sampled_from([0, 8, 16, 24, 64, 72])

register_ops = st.one_of(
    st.builds(Instruction, op=st.sampled_from(
        ["add", "xor", "sub", "and", "or", "sll", "srl", "mulx"]),
        rd=REG, rs1=REG, rs2=REG),
    st.builds(Instruction, op=st.sampled_from(["add", "xor", "srl"]),
              rd=REG, rs1=REG, imm=st.integers(0, 2**64 - 1)),
    st.builds(Instruction, op=st.just("sdivx"), rd=REG, rs1=REG, rs2=REG),
    st.builds(Instruction, op=st.sampled_from(["fdivd", "faddd"]),
              rd=REG, rs1=REG, rs2=REG),
    st.builds(Instruction, op=st.just("set"), rd=REG,
              imm=st.integers(0, 2**40)),
    st.builds(Instruction, op=st.just("mov"), rd=REG, rs1=REG),
    st.just(Instruction("nop")),
)
stores = st.builds(Instruction, op=st.just("stx"), rs1=REG,
                   rs2=st.just(BASE), imm=OFFSET)
memory_ops = st.one_of(
    st.builds(Instruction, op=st.just("ldx"), rd=REG, rs1=st.just(BASE),
              imm=OFFSET),
    stores,
    st.builds(Instruction, op=st.just("cas"), rd=REG,
              rs1=st.just(CAS_BASE), rs2=REG),
)


@st.composite
def looping_programs(draw) -> list[Instruction]:
    """A counted loop over a register-only run (with at most one
    memory op inside), then a tail of stores: the thread finishes
    while its store buffer still drains."""
    body = draw(st.lists(register_ops, min_size=4, max_size=30))
    if draw(st.booleans()):
        body.insert(draw(st.integers(0, len(body))), draw(memory_ops))
    iterations = draw(st.integers(1, 6))
    tail = draw(st.lists(stores, max_size=3))
    return (
        [Instruction("set", rd=COUNTER, imm=iterations)]
        + body
        + [Instruction("sub", rd=COUNTER, rs1=COUNTER, imm=1),
           Instruction("bne", rs1=COUNTER, target=1)]
        + tail
    )


@st.composite
def spin_lock_programs(draw) -> list[Instruction]:
    """Take the lock (``set; cas; bne``), run a critical section of
    register ops and bucket loads and stores, release it with a
    ``stx`` of zero; a few times over.

    The swap value differs between threads, so a spinner's ``cas``
    may read another holder's value into the register its ``set``
    writes; and the spin path may add and take back one on a scratch
    register. Either way the registers differ partway round the loop
    from what the failing ``cas`` left."""
    spin = [Instruction("set", rd=SWAP, imm=draw(st.integers(1, 3)))]
    extra = draw(st.sampled_from(["none", "set", "add-sub"]))
    if extra == "set":
        spin.append(Instruction("set", rd=SPIN_SCRATCH, imm=7))
    elif extra == "add-sub":
        spin += [
            Instruction("add", rd=SPIN_SCRATCH, rs1=SPIN_SCRATCH, imm=1),
            Instruction("sub", rd=SPIN_SCRATCH, rs1=SPIN_SCRATCH, imm=1),
        ]
    spin += [
        Instruction("cas", rd=SWAP, rs1=LOCK, rs2=ZERO),
        Instruction("bne", rs1=SWAP, target=1),
    ]
    bucket = st.sampled_from((BASE,) + CONFLICTS)
    offset = st.sampled_from([0, 8, 16, 24])
    critical = draw(st.lists(
        st.one_of(
            register_ops,
            st.builds(Instruction, op=st.just("ldx"), rd=REG,
                      rs1=bucket, imm=offset),
            st.builds(Instruction, op=st.just("stx"), rs1=REG,
                      rs2=bucket, imm=offset),
            # A read of the lock's line: the next failing cas must
            # invalidate the copy and pays for it.
            st.builds(Instruction, op=st.just("ldx"), rd=REG,
                      rs1=st.just(LOCK), imm=st.just(8)),
        ),
        min_size=1, max_size=6,
    ))
    return (
        [Instruction("set", rd=COUNTER, imm=draw(st.integers(1, 3)))]
        + spin
        + critical
        + [Instruction("stx", rs1=ZERO, rs2=LOCK, imm=0),
           Instruction("sub", rd=COUNTER, rs1=COUNTER, imm=1),
           Instruction("bne", rs1=COUNTER, target=1)]
    )


thread_programs = st.one_of(
    st.lists(st.one_of(register_ops, memory_ops), min_size=1, max_size=25),
    looping_programs(),
)
core_programs = st.lists(thread_programs, min_size=1, max_size=2)
workloads = st.dictionaries(
    st.integers(0, 24), core_programs, min_size=1, max_size=4
)
settings_ = st.tuples(st.booleans(), st.sampled_from([7, 64, 4096]))
spin_workloads = st.dictionaries(
    st.integers(0, 24),
    st.lists(
        st.one_of(spin_lock_programs(), spin_lock_programs(),
                  spin_lock_programs(), thread_programs),
        min_size=1, max_size=2,
    ),
    min_size=2, max_size=8,
)


def reference_step(core: Core, now: int) -> int:
    """``Core.step`` before block issue: one instruction per step."""
    stats = core.stats
    stats.cycles += 1
    store_buffer = core.store_buffer
    drain_at = store_buffer._head_done_at
    if drain_at is not None and now >= drain_at:
        core._drain_stores(now)

    # Round-robin selection among ready threads.
    threads = core.threads
    n_threads = len(threads)
    thread = None
    if n_threads == 1:
        candidate = threads[0]
        if not candidate.done and candidate.ready_at <= now:
            thread = candidate
    else:
        idx = core._rr_next
        for _ in range(n_threads):
            candidate = threads[idx]
            idx += 1
            if idx == n_threads:
                idx = 0
            if not candidate.done and candidate.ready_at <= now:
                thread = candidate
                core._rr_next = idx
                break

    if thread is None:
        if core._undone:
            stats.stall_cycles += 1
            core._stall_cycle_events += 1
        elif not core.done and store_buffer.empty:
            core.done = True
    else:
        pc = thread.pc
        info = thread.infos[pc]
        if info.is_store and store_buffer.full:
            core._rollback(thread, now, kind="store_buffer")
        else:
            instr = thread.instructions[pc]
            outcome = core._outcome
            thread.handlers[pc](instr, thread, core.memory, outcome)
            stats.issued += 1
            thread_stats = thread.stats
            thread_stats.instructions += 1
            core._issues += 1
            last = core._last_issued_thread
            if last is not None and last != thread.thread_id:
                core._thread_switches += 1
            core._last_issued_thread = thread.thread_id
            drafted = core.execution_drafting and core._draftable(instr)
            n = 0.5 if drafted else 1.0
            class_index = info.class_index
            core._class_counts[class_index] += n
            core._class_weights[class_index] += n * outcome.activity

            if info.is_store:
                thread_stats.stores += 1
                store_buffer.push(
                    StoreEntry(outcome.mem_addr, outcome.store_value,
                               thread.thread_id),
                    now,
                )
                thread.ready_at = now + 1
            elif info.is_load:
                thread_stats.loads += 1
                forwarded = store_buffer.forward_value(outcome.mem_addr)
                if forwarded is not None:
                    thread.write_int(instr.rd, forwarded)
                mem = core.memsys.load(core.tile_id, outcome.mem_addr, now)
                if mem.level != "l1":
                    stats.load_miss_rollbacks += 1
                    stats.rollbacks += 1
                    thread_stats.rollbacks += 1
                    core._rollback_events += 1
                thread.ready_at = now + mem.latency
            elif info.is_atomic:
                mem = core.memsys.atomic(core.tile_id, outcome.mem_addr, now)
                thread.ready_at = now + mem.latency
            elif info.is_branch:
                thread_stats.branches += 1
                if outcome.branch_taken:
                    thread_stats.branches_taken += 1
                    if instr.target <= pc:
                        thread_stats.iterations += 1
                thread.ready_at = now + info.latency
            else:
                thread.ready_at = now + info.latency

            if thread.done:
                core._undone -= 1
                if core._undone == 0 and store_buffer.empty:
                    core.done = True

    best = store_buffer._head_done_at
    for t in threads:
        if not t.done and (best is None or t.ready_at < best):
            best = t.ready_at
    if best is None:
        best = now + _FAR_FUTURE
    elif best <= now:
        best = now + 1
    core.next_event = best
    return best


def lockstep_run(
    engine: MulticoreEngine,
    trace: dict[int, list],
    cycles: int | None = None,
    until_done: bool = False,
    max_cycles: int = 50_000_000,
) -> RunResult:
    """``engine.run`` as it was before due-core stepping and block
    issue: every active core steps at every visited cycle, one
    instruction at a time. Issues are appended to ``trace[tile]`` as
    ``(cycle, thread, pc, op)``."""
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
                before = [(t.stats.instructions, t.pc) for t in core.threads]
                next_event = reference_step(core, now)
                for t, (count, pc) in zip(core.threads, before):
                    if t.stats.instructions != count:
                        trace[core.tile_id].append(
                            (now, t.thread_id, pc, t.program[pc].op)
                        )
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


def build(workload: dict[int, list[list[Instruction]]], drafting: bool,
          interval: int) -> MulticoreEngine:
    checker = CheckSuite()
    engine = MulticoreEngine(checker=checker, execution_drafting=drafting)
    engine.memsys.checker = checker
    # Sweep often so the check schedule itself is compared.
    engine.CHECK_INTERVAL = interval
    for tile, threads in workload.items():
        engine.add_core(
            tile,
            [Program(list(instrs)) for instrs in threads],
            init_regs=INIT_REGS,
            init_fregs=INIT_FREGS,
        )
    return engine


def memory_system(engine: MulticoreEngine) -> dict:
    memsys = engine.memsys
    return {
        "l2": [
            (
                [list(entries) for entries in slice_.tags._sets if entries],
                sorted(
                    (line, entry.owner, sorted(entry.sharers))
                    for line, entry in slice_.directory.items()
                ),
                dataclasses.asdict(slice_.tags.stats),
            )
            for slice_ in memsys.l2
        ],
        "private": [
            (
                [list(e) for e in memsys.l1d[tile]._sets if e],
                [list(e) for e in memsys.l15[tile]._sets if e],
                sorted((line, state.value)
                       for line, state in memsys._l15_state[tile].items()),
                dataclasses.asdict(memsys.l1d[tile].stats),
                dataclasses.asdict(memsys.l15[tile].stats),
                dataclasses.asdict(memsys.l1i[tile].stats),
            )
            for tile in range(memsys.config.tile_count)
        ],
    }


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
                core._rr_next,
                core._last_issued_thread,
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
        "memsys": memory_system(engine),
    }


def traced(engine: MulticoreEngine) -> dict[int, TraceRecorder]:
    return {
        tile: TraceRecorder(core, capacity=1_000_000).attach()
        for tile, core in engine.cores.items()
    }


def trace_of(recorders: dict[int, TraceRecorder]) -> dict[int, list]:
    return {
        tile: [(e.cycle, e.thread, e.pc, e.op) for e in rec.entries]
        for tile, rec in recorders.items()
    }


@given(workloads, settings_)
def test_due_stepping_equals_lockstep_to_completion(workload, setting):
    engine, reference = build(workload, *setting), build(workload, *setting)
    recorders = traced(engine)
    want_trace = {tile: [] for tile in workload}
    got = engine.run(until_done=True, max_cycles=1_000_000)
    want = lockstep_run(reference, want_trace, until_done=True,
                        max_cycles=1_000_000)
    assert got.completed
    assert snapshot(engine, got) == snapshot(reference, want)
    assert trace_of(recorders) == want_trace


@given(workloads, settings_, st.integers(1, 400), st.integers(1, 400))
def test_due_stepping_equals_lockstep_warmup_and_window(
    workload, setting, warmup, window
):
    engine, reference = build(workload, *setting), build(workload, *setting)
    recorders = traced(engine)
    want_trace = {tile: [] for tile in workload}
    got = engine.run(cycles=warmup)
    want = lockstep_run(reference, want_trace, cycles=warmup)
    assert snapshot(engine, got) == snapshot(reference, want)
    got = engine.run(cycles=window)
    want = lockstep_run(reference, want_trace, cycles=window)
    assert snapshot(engine, got) == snapshot(reference, want)
    assert trace_of(recorders) == want_trace


def count_parked(engine: MulticoreEngine) -> list[int]:
    """A one-item list the engine's bulk-accounted issues add to."""
    total = [0]
    for core in engine.cores.values():
        def counting(now, original=core.unpark):
            issued = original(now)
            total[0] += issued
            return issued

        core.unpark = counting
    return total


@given(spin_workloads, settings_)
def test_spin_locks_equal_lockstep_to_completion(workload, setting):
    engine, reference = build(workload, *setting), build(workload, *setting)
    recorders = traced(engine)
    want_trace = {tile: [] for tile in workload}
    got = engine.run(until_done=True, max_cycles=1_000_000)
    want = lockstep_run(reference, want_trace, until_done=True,
                        max_cycles=1_000_000)
    assert got.completed
    assert snapshot(engine, got) == snapshot(reference, want)
    assert trace_of(recorders) == want_trace


@given(spin_workloads, settings_, st.integers(1, 600), st.integers(1, 600))
def test_spin_locks_equal_lockstep_warmup_and_window(
    workload, setting, warmup, window
):
    engine, reference = build(workload, *setting), build(workload, *setting)
    recorders = traced(engine)
    want_trace = {tile: [] for tile in workload}
    for cycles in (warmup, window):
        got = engine.run(cycles=cycles)
        want = lockstep_run(reference, want_trace, cycles=cycles)
        assert snapshot(engine, got) == snapshot(reference, want)
    assert trace_of(recorders) == want_trace


def _parks(workload, drafting: bool = False) -> bool:
    engine = build(workload, drafting, 4096)
    parked = count_parked(engine)
    engine.run(until_done=True, max_cycles=1_000_000)
    return parked[0] > 0


def test_spin_lock_cases_park():
    # The generated spin-lock cases do exercise parking, also on a
    # core with two threads.
    search = settings(max_examples=200, database=None, derandomize=True,
                      phases=[Phase.generate])
    find(spin_workloads, _parks, settings=search)
    find(
        spin_workloads,
        lambda w: any(len(threads) == 2 for threads in w.values())
        and _parks({t: p for t, p in w.items() if len(p) == 2}),
        settings=search,
    )
