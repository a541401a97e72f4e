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

Spin locks: threads on 2-4 cores take one lock with ``set; cas; bne``,
run a critical section of register ops and bucket loads and stores
(some on a line that shares the lock line's L2 set and home slice)
and release it with a ``stx`` of zero, a few times over. Threads swap
in different values and some spin paths change a register and change
it back, so some loops hold other registers partway round than the
failing ``cas`` left. The engine parks cores whose threads all spin
and accounts their iterations in bulk, so these cases also compare
the whole memory system: every L2 slice's sets in LRU order with
dirty bits, the directories, each tile's L1D and L1.5 lines (in LRU
order) with their MESI states, every cache's statistics and each
core's store buffer.

Fixed-point loops: endless loops on 1-4 cores at one or two threads
mix register ops, whose temporaries the loop rewrites partway round,
with loads and stores in the tile's own span (some lines in one L1D
set), with stores spaced so the buffer never fills, or in one variant
back to back so it does. The engine parks a core once every thread of
it repeats its iteration exactly, and a finite program on another
core may read, write or ``cas`` a parked core's line, or evict it at
its home slice, partway through. These cases run to warm-up and window
cuts and compare everything above.

Each generated case is small (few cores, short programs), so that a
failing one shrinks to its report in about a minute.
"""

from __future__ import annotations

import dataclasses

from hypothesis import Phase, example, find, given, settings
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
    from what the failing ``cas`` left. Or the spin path counts its
    iterations in the scratch register, and never repeats exactly."""
    spin = [Instruction("set", rd=SWAP, imm=draw(st.integers(1, 3)))]
    extra = draw(st.sampled_from(["none", "set", "add-sub", "add"]))
    if extra == "set":
        spin.append(Instruction("set", rd=SPIN_SCRATCH, imm=7))
    elif extra == "add-sub":
        spin += [
            Instruction("add", rd=SPIN_SCRATCH, rs1=SPIN_SCRATCH, imm=1),
            Instruction("sub", rd=SPIN_SCRATCH, rs1=SPIN_SCRATCH, imm=1),
        ]
    elif extra == "add":
        # Counts the spins: the loop never repeats exactly.
        spin.append(
            Instruction("add", rd=SPIN_SCRATCH, rs1=SPIN_SCRATCH, imm=1))
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
        min_size=1, max_size=4,
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
        st.one_of(
            spin_lock_programs(), spin_lock_programs(),
            spin_lock_programs(),
            st.lists(st.one_of(register_ops, memory_ops), min_size=1,
                     max_size=10),
        ),
        min_size=1, max_size=2,
    ),
    min_size=2, max_size=4,
)

#: The lockstep suites skip Hypothesis's explain phase, which re-runs a
#: shrunk failing case many times: with the small cases above, a
#: failure reports within about a minute.
lockstep = settings(
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink]
)

#: Fixed-point loops: the register holding the tile's own span (set in
#: each program's prologue), its layout, and a register that stays
#: nonzero for the endless branch. Registers 1-3 hold constants, 4-7
#: are the loop's temporaries.
OWN, OWN_BASE, OWN_SPAN, FOREVER = 20, 0x0040_0000, 1 << 16, 1
TEMPS = st.integers(4, 7)
SOURCES = st.integers(1, 7)
#: Word offsets in the span: three words of one line, and four lines
#: of one L1D set (2 KB apart: 128 sets of 16 B lines).
OWN_OFFSETS = st.sampled_from([0, 8, 16, 64, 2048, 4096, 6144])
#: Lines 6400 L2 lines apart share a home slice and an L2 set.
L2_STRIDE = 6400 * 64


@st.composite
def fixed_point_loops(draw, tile: int, fills: bool = False,
                      steady: bool = False):
    """An endless loop over register ops on the temporaries and loads
    and stores in ``tile``'s own span. Each store is followed by ten
    ``nop``s or by an op of ten cycles or more, during which its drain
    is the core's only event, so the buffer never fills, unless
    ``fills``: then at least nine stores issue back to back. A
    ``steady`` loop's register ops read only the constants, so it
    repeats from its second or third iteration on."""
    own = OWN_BASE + tile * OWN_SPAN
    sources = st.integers(1, 3) if steady else SOURCES
    body = []
    for _ in range(draw(st.integers(2, 8))):
        kind = draw(st.sampled_from(["reg", "reg", "load", "store"]))
        if kind == "reg":
            body.append(draw(st.builds(
                Instruction,
                op=st.sampled_from(["add", "xor", "and", "or", "srl",
                                    "mulx", "sdivx"]),
                rd=TEMPS, rs1=sources, rs2=sources,
            )))
        elif kind == "load":
            body.append(Instruction("ldx", rd=draw(TEMPS), rs1=OWN,
                                    imm=draw(OWN_OFFSETS)))
        elif not fills:
            body.append(Instruction("stx", rs1=draw(SOURCES), rs2=OWN,
                                    imm=draw(OWN_OFFSETS)))
            body += draw(st.sampled_from([
                [Instruction("nop")] * 10,
                [Instruction("mulx", rd=4, rs1=2, rs2=3)],
                [Instruction("sdivx", rd=5, rs1=3, rs2=2)],
            ]))
    if fills:
        body += [
            Instruction("stx", rs1=draw(SOURCES), rs2=OWN,
                        imm=draw(OWN_OFFSETS))
            for _ in range(draw(st.integers(9, 12)))
        ]
    return (
        [Instruction("set", rd=OWN, imm=own)]
        + body
        + [Instruction("bne", rs1=FOREVER, target=1)]
    )


@st.composite
def foreign_touches(draw, victim: int, offsets: list[int]):
    """A finite program that waits a while (a counted loop of divides)
    and then reads, writes or ``cas``-es words at ``offsets`` in
    ``victim``'s span, or evicts their line from its home L2 slice by
    filling four other lines of its set."""
    program = [
        Instruction("set", rd=COUNTER, imm=draw(st.integers(8, 30))),
        Instruction("sdivx", rd=4, rs1=2, rs2=3),
        Instruction("sub", rd=COUNTER, rs1=COUNTER, imm=1),
        Instruction("bne", rs1=COUNTER, target=1),
    ]
    for _ in range(draw(st.integers(1, 3))):
        addr = OWN_BASE + victim * OWN_SPAN + draw(st.sampled_from(offsets))
        touch = draw(st.sampled_from(["ldx", "stx", "cas", "evict"]))
        if touch == "evict":
            for k in range(1, 5):
                program += [
                    Instruction("set", rd=OWN, imm=addr + L2_STRIDE * k),
                    Instruction("ldx", rd=5, rs1=OWN, imm=0),
                ]
            continue
        program.append(Instruction("set", rd=OWN, imm=addr))
        program.append({
            "ldx": Instruction("ldx", rd=5, rs1=OWN, imm=0),
            "stx": Instruction("stx", rs1=2, rs2=OWN, imm=0),
            "cas": Instruction("cas", rd=6, rs1=OWN, rs2=5),
        }[touch])
    return program


@st.composite
def drainers(draw, tile: int):
    """A finite program that waits a while and ends with a burst of
    stores to ``tile``'s own span: its core then only drains its store
    buffer, which it does at every visit of the run."""
    return [
        Instruction("set", rd=COUNTER, imm=draw(st.integers(4, 20))),
        Instruction("sdivx", rd=4, rs1=2, rs2=3),
        Instruction("sub", rd=COUNTER, rs1=COUNTER, imm=1),
        Instruction("bne", rs1=COUNTER, target=1),
        Instruction("set", rd=OWN, imm=OWN_BASE + tile * OWN_SPAN),
    ] + [Instruction("stx", rs1=2, rs2=OWN, imm=16 * k) for k in range(8)]


@st.composite
def fixed_point_workloads(draw, threads: int | None = None,
                          foreign: bool = False):
    """Fixed-point loops on 1-4 cores (``threads`` per core, or 1-2),
    one of which may fill its store buffer, and maybe a finite program
    on one more core that ends draining its store buffer; with
    ``foreign``, steady loops and a finite program on one more core
    that touches one of their lines instead."""
    tiles = draw(st.lists(st.integers(0, 24), min_size=1, max_size=4,
                          unique=True))
    filler = None if foreign else draw(st.sampled_from([None] + tiles))
    workload = {}
    for tile in tiles:
        n = threads or draw(st.integers(1, 2))
        workload[tile] = [
            draw(fixed_point_loops(tile, fills=tile == filler,
                                   steady=foreign))
            for _ in range(n)
        ]
    other = draw(st.integers(0, 24).filter(lambda t: t not in tiles))
    if foreign:
        victim = draw(st.sampled_from(tiles))
        offsets = [i.imm for p in workload[victim] for i in p
                   if i.op in ("ldx", "stx")] or [0]
        workload[other] = [draw(foreign_touches(victim, offsets))]
    elif draw(st.booleans()):
        workload[other] = [draw(drainers(other))]
    return workload


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


def store_buffer(core: Core) -> tuple:
    sb = core.store_buffer
    return (
        [(e.addr, e.value, e.thread_id, e.seq) for e in sb._entries],
        sb.pushed, sb.drained, sb._head_done_at,
    )


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
                store_buffer(core),
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


#: Generated spin-lock cases finish within about 3,100 cycles; a bound
#: well above that keeps a livelocked shrink candidate cheap.
SPIN_MAX_CYCLES = 20_000


@lockstep
@given(spin_workloads, settings_)
def test_spin_locks_equal_lockstep_to_completion(workload, setting):
    engine, reference = build(workload, *setting), build(workload, *setting)
    recorders = traced(engine)
    want_trace = {tile: [] for tile in workload}
    got = engine.run(until_done=True, max_cycles=SPIN_MAX_CYCLES)
    want = lockstep_run(reference, want_trace, until_done=True,
                        max_cycles=SPIN_MAX_CYCLES)
    assert got.completed
    assert snapshot(engine, got) == snapshot(reference, want)
    assert trace_of(recorders) == want_trace


@lockstep
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


@lockstep
@given(fixed_point_workloads(), settings_, st.integers(1, 2000),
       st.integers(1, 2000))
def test_fixed_point_loops_equal_lockstep_warmup_and_window(
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


#: A parked loop stores into the first word of its line, and another
#: core's ``cas`` fails on that word partway through: the word and the
#: line have one address, and the ``cas`` takes the line away.
FAILING_CAS_ON_A_PARKED_LINE = {
    0: [[Instruction("set", rd=OWN, imm=OWN_BASE),
         Instruction("stx", rs1=2, rs2=OWN, imm=0),
         *[Instruction("nop")] * 10,
         Instruction("bne", rs1=FOREVER, target=1)]],
    1: [[Instruction("set", rd=COUNTER, imm=20),
         Instruction("sdivx", rd=4, rs1=2, rs2=3),
         Instruction("sub", rd=COUNTER, rs1=COUNTER, imm=1),
         Instruction("bne", rs1=COUNTER, target=1),
         Instruction("set", rd=OWN, imm=OWN_BASE),
         Instruction("cas", rd=6, rs1=OWN, rs2=5)]],
}


#: A parked loop drains a store into its line, and another core
#: evicts the line at its home slice (filling four lines of its set)
#: and then reads it: the read downgrades the L1.5 line to SHARED and
#: clean, and the un-parked core's replayed drain must not dirty it.
DRAIN_INTO_A_DOWNGRADED_LINE = {
    0: [[Instruction("set", rd=OWN, imm=OWN_BASE),
         Instruction("add", rd=4, rs1=1, rs2=2),
         Instruction("stx", rs1=1, rs2=OWN, imm=0),
         Instruction("mulx", rd=4, rs1=2, rs2=3),
         Instruction("bne", rs1=FOREVER, target=1)]],
    2: [[Instruction("set", rd=COUNTER, imm=25),
         Instruction("sdivx", rd=4, rs1=2, rs2=3),
         Instruction("sub", rd=COUNTER, rs1=COUNTER, imm=1),
         Instruction("bne", rs1=COUNTER, target=1),
         *[instruction
           for k in range(1, 5)
           for instruction in (
               Instruction("set", rd=OWN, imm=OWN_BASE + k * L2_STRIDE),
               Instruction("ldx", rd=5, rs1=OWN, imm=0),
           )],
         Instruction("set", rd=OWN, imm=OWN_BASE),
         Instruction("ldx", rd=5, rs1=OWN, imm=0)]],
}


@lockstep
@given(fixed_point_workloads(foreign=True), settings_,
       st.integers(1500, 3000))
@example(FAILING_CAS_ON_A_PARKED_LINE, (False, 4096), 3000)
@example(DRAIN_INTO_A_DOWNGRADED_LINE, (False, 64), 2135)
def test_foreign_touches_of_parked_loops_equal_lockstep(
    workload, setting, window
):
    # Two cuts: one after the loops have parked, one after the touches.
    engine, reference = build(workload, *setting), build(workload, *setting)
    recorders = traced(engine)
    want_trace = {tile: [] for tile in workload}
    for cycles in (1500, window):
        got = engine.run(cycles=cycles)
        want = lockstep_run(reference, want_trace, cycles=cycles)
        assert snapshot(engine, got) == snapshot(reference, want)
    assert trace_of(recorders) == want_trace


def _parks(workload, drafting: bool = False, cycles: int | None = None
           ) -> bool:
    engine = build(workload, drafting, 4096)
    parked = count_parked(engine)
    if cycles is None:
        engine.run(until_done=True, max_cycles=SPIN_MAX_CYCLES)
    else:
        engine.run(cycles=cycles)
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


def test_fixed_point_cases_park():
    # Generated fixed-point loops do park, at one and at two threads
    # per core, and a loop that fills its store buffer never does.
    search = settings(max_examples=200, database=None, derandomize=True,
                      phases=[Phase.generate])
    for threads in (1, 2):
        find(fixed_point_workloads(threads),
             lambda w: _parks(w, cycles=3000), settings=search)
    for tile in (0, 7):
        loop = find(fixed_point_loops(tile, fills=True),
                    lambda program: True, settings=search)
        assert not _parks({tile: [loop]}, cycles=3000)
