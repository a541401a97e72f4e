"""Block issue: register-only runs compiled to straight-line Python.

A *run* is a stretch of a program with no load, store or ``cas``. It
starts at the program start, at a branch target or after a branch or a
memory op, and it ends at a branch (inclusive), before a memory op or
a branch target, or before the program's last instruction — so a
thread never finishes inside one. Runs shorter than :data:`MIN_RUN`
are left to the per-instruction path: a block would not pay for itself.

Each distinct run content compiles, once per process, to Python
functions generated from its instructions, with registers held in
locals:

* ``full(regs, fregs, counts, weights)`` executes the whole run;
* ``part(regs, fregs, counts, weights, start, stop)``, compiled on
  first use, executes the run indices ``start..stop-1``, each op
  guarded by its index.

Both return the closing branch's outcome (``None`` when the run does
not end in a branch, or ``part`` stopped short of it) and add the
run's per-class instruction counts and activity weights to the core's
interned ``counts``/``weights`` lists. Activities are whole multiples
of 1/128 (operand bit counts over 128 bits), so a function sums bit
counts as integers and divides once: the weight it adds equals the sum
of the per-instruction weights exactly. Compiled code is keyed by run
content, so it is bounded by the size of the programs seen, whatever
entry points a thread uses.

Registers hold 64-bit unsigned values (every writer masks), so the
generated code masks only the ops that can leave that range.

:func:`schedule` gives the issue schedule of two threads' runs, which
:func:`~repro.core.spin.replay` derives from the runs' static
latencies; it depends only on those, where each thread stands, and
when the second thread is next ready, so it is memoized per run.
"""

from __future__ import annotations

import functools
import struct

from repro.core.semantics import _fp_div, _sdivx
from repro.core.spin import FAR, replay
from repro.isa.instructions import NUM_FP_REGS, NUM_INT_REGS, WORD_MASK, opcode
from repro.isa.program import Instruction

#: Shortest run issued as a block; shorter runs take the
#: per-instruction path (a block costs a few issues' worth of set-up).
MIN_RUN = 4

#: Two-thread schedules kept per run before the memo is cleared.
MAX_SCHEDULES = 4096

_M = f"{WORD_MASK:#x}"

#: Integer ops as expressions over the operand locals ``{a}``/``{b}``.
_INT_EXPR = {
    "add": "({a} + {b}) & " + _M,
    "sub": "({a} - {b}) & " + _M,
    "and": "{a} & {b}",
    "or": "{a} | {b}",
    "xor": "{a} ^ {b}",
    "sll": "({a} << ({b} & 63)) & " + _M,
    "srl": "{a} >> ({b} & 63)",
    "mulx": "({a} * {b}) & " + _M,
    "sdivx": "_sdivx({a}, {b}) & " + _M,
}

_FP_EXPR = {
    "faddd": "{a} + {b}",
    "fsubd": "{a} - {b}",
    "fmuld": "{a} * {b}",
    "fdivd": "_fp_div({a}, {b})",
    "fadds": "{a} + {b}",
    "fsubs": "{a} - {b}",
    "fmuls": "{a} * {b}",
    "fdivs": "_fp_div({a}, {b})",
}

_BRANCH_TEST = {"beq": "== 0", "bne": "!= 0"}

#: Globals of every generated function (one shared, read-only dict).
_NAMESPACE = {
    "_sdivx": _sdivx,
    "_fp_div": _fp_div,
    "_pack": struct.Struct("<d").pack,
    "_ifb": int.from_bytes,
}


def _reg(index) -> bool:
    return isinstance(index, int) and 0 <= index < NUM_INT_REGS


def _freg(index) -> bool:
    return isinstance(index, int) and 0 <= index < NUM_FP_REGS


def blockable(instr: Instruction) -> bool:
    """Whether ``instr`` may issue inside a block: a register-only op
    with well-formed operands (anything else keeps the per-instruction
    path, which raises exactly as it always did)."""
    op = instr.op
    if op in _INT_EXPR:
        if not _reg(instr.rs1):
            return False
        if instr.rs2 is None:
            return isinstance(instr.imm, int)
        return _reg(instr.rs2)
    if op in _FP_EXPR:
        return _freg(instr.rs1) and _freg(instr.rs2) and _freg(instr.rd)
    if op in _BRANCH_TEST:
        return _reg(instr.rs1) and isinstance(instr.target, int)
    if op == "mov":
        return _reg(instr.rs1)
    if op == "set":
        return isinstance(instr.imm, int)
    return op == "nop"


class _Source:
    """Generates one run function (``full`` or guarded ``part``)."""

    def __init__(self, instructions: tuple[Instruction, ...], guarded: bool):
        self.guarded = guarded
        self.lines: list[str] = []
        self.indent = "    "
        #: class index -> activity terms (bit-count expressions)
        self.terms: dict[int, list[str]] = {}
        #: full: register local -> its cached bit-count local
        self.cached: dict[str, str] = {}
        self.fresh = 0
        self.instructions = instructions

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def bits(self, local: str, fp: bool) -> str:
        """An expression for the set-bit count of ``local``'s value."""
        expr = (
            f"_ifb(_pack({local}), 'little').bit_count()"
            if fp
            else f"{local}.bit_count()"
        )
        if self.guarded:
            return expr
        name = self.cached.get(local)
        if name is None:
            name = self.cached[local] = f"c{self.fresh}"
            self.fresh += 1
            self.emit(f"{name} = {expr}")
        return name

    def activity(self, class_index: int, terms: list[str]) -> None:
        self.terms.setdefault(class_index, []).extend(terms)
        if self.guarded:
            self.emit(f"w{class_index} += {' + '.join(terms)}")

    def write(self, local: str, expr: str) -> None:
        self.emit(f"{local} = {expr}")
        self.cached.pop(local, None)

    def op(self, instr: Instruction) -> None:
        op = instr.op
        info = opcode(op)
        ci = info.class_index
        if op in _INT_EXPR:
            a = f"r{instr.rs1}"
            terms = [self.bits(a, False)]
            if instr.rs2 is None:
                value = instr.imm & WORD_MASK
                b = str(value)
                terms.append(str(value.bit_count()))
                # A constant shift count is masked here, once.
                expr = _INT_EXPR[op].replace("({b} & 63)", str(value & 63))
            else:
                b = f"r{instr.rs2}"
                terms.append(self.bits(b, False))
                expr = _INT_EXPR[op]
            self.activity(ci, terms)
            if instr.rd:
                self.write(f"r{instr.rd}", expr.format(a=a, b=b))
        elif op in _FP_EXPR:
            a, b = f"f{instr.rs1}", f"f{instr.rs2}"
            self.activity(ci, [self.bits(a, True), self.bits(b, True)])
            self.write(f"f{instr.rd}", _FP_EXPR[op].format(a=a, b=b))
        elif op in _BRANCH_TEST:
            v = f"r{instr.rs1}"
            c = self.bits(v, False)
            self.activity(ci, [c, c])
            self.emit(f"taken = {v} {_BRANCH_TEST[op]}")
        elif op == "mov":
            v = f"r{instr.rs1}"
            c = self.bits(v, False)
            self.activity(ci, [c, c])
            if instr.rd:
                self.write(f"r{instr.rd}", v)
                if not self.guarded:
                    # The copy has the same bit count.
                    self.cached[f"r{instr.rd}"] = c
        elif op == "set":
            if instr.rd:
                self.write(f"r{instr.rd}", str(instr.imm & WORD_MASK))

    def build(self) -> str:
        instrs = self.instructions
        int_read: set[int] = set()
        int_written: set[int] = set()
        fp_used: set[int] = set()
        fp_written: set[int] = set()
        for instr in instrs:
            op = instr.op
            if op in _FP_EXPR:
                fp_used.update((instr.rs1, instr.rs2, instr.rd))
                fp_written.add(instr.rd)
                continue
            if op in _INT_EXPR or op in _BRANCH_TEST or op == "mov":
                int_read.add(instr.rs1)
                if op in _INT_EXPR and instr.rs2 is not None:
                    int_read.add(instr.rs2)
            if op in _INT_EXPR or op in ("mov", "set"):
                if instr.rd:
                    int_written.add(instr.rd)
        # A guarded op may not run, so its destination is loaded too.
        int_loaded = int_read | int_written if self.guarded else int_read
        classes = sorted({opcode(i.op).class_index for i in instrs})
        if self.guarded:
            head = "def run(regs, fregs, counts, weights, start, stop):"
        else:
            head = "def run(regs, fregs, counts, weights):"
        self.lines.append(head)
        for r in sorted(int_loaded):
            self.emit(f"r{r} = regs[{r}]")
        for f in sorted(fp_used):
            self.emit(f"f{f} = fregs[{f}]")
        self.emit("taken = None")
        if self.guarded:
            for ci in classes:
                self.emit(f"w{ci} = 0")
        for j, instr in enumerate(instrs):
            if self.guarded:
                self.emit(f"if start <= {j} < stop:")
                self.indent = "        "
                before = len(self.lines)
                self.op(instr)
                if len(self.lines) == before:
                    self.emit("pass")
                self.indent = "    "
            else:
                self.op(instr)
        for r in sorted(int_written):
            self.emit(f"regs[{r}] = r{r}")
        for f in sorted(fp_written):
            self.emit(f"fregs[{f}] = f{f}")
        for ci in classes:
            members = [opcode(i.op).class_index == ci for i in instrs]
            if self.guarded:
                prefix = [0]
                for member in members:
                    prefix.append(prefix[-1] + member)
                table = tuple(prefix)
                self.emit(
                    f"counts[{ci}] += {table}[stop] - {table}[start]"
                )
                if ci in self.terms:
                    self.emit(f"weights[{ci}] += w{ci} / 128.0")
            else:
                self.emit(f"counts[{ci}] += {sum(members)}")
                terms = self.terms.get(ci)
                if terms:
                    self.emit(
                        f"weights[{ci}] += ({' + '.join(terms)}) / 128.0"
                    )
        self.emit("return taken")
        return "\n".join(self.lines) + "\n"


def _compile(instructions: tuple[Instruction, ...], guarded: bool):
    source = _Source(instructions, guarded).build()
    kind = "part" if guarded else "full"
    code = compile(source, f"<run {kind} x{len(instructions)}>", "exec")
    defined: dict = {}
    exec(code, _NAMESPACE, defined)
    return defined["run"]


class Run:
    """One run content: static timing tables and its two functions.

    ``cyc[j]`` is the issue offset of index ``j`` when the run issues
    alone from index 0 (``cyc[n]`` is when the thread is ready after
    the last one), and ``bits`` has bit ``cyc[j]`` set for every
    index. ``timing`` is the run's finite table for
    :func:`~repro.core.spin.replay`, and ``schedules`` memoizes
    :func:`schedule` with this run as the first thread's.
    """

    __slots__ = ("n", "timing", "cyc", "bits", "branch", "full", "_part",
                 "_instructions", "schedules")

    def __init__(self, instructions: tuple[Instruction, ...]):
        infos = [opcode(i.op) for i in instructions]
        self.n = n = len(instructions)
        lats = [info.latency for info in infos]
        self.timing = ((*lats, None), (-1,) * (n + 1))
        cyc = [0]
        for latency in lats:
            cyc.append(cyc[-1] + latency)
        self.cyc = tuple(cyc)
        self.bits = sum(1 << c for c in cyc[:-1])
        self.branch = infos[-1].is_branch
        self.full = _compile(instructions, guarded=False)
        self._part = None
        self._instructions = instructions
        self.schedules: dict = {}

    @property
    def part(self):
        """The guarded function, compiled on first use (runs that only
        ever issue whole never pay for it)."""
        if self._part is None:
            self._part = _compile(self._instructions, guarded=True)
        return self._part


@functools.lru_cache(maxsize=1024)
def _run(instructions: tuple[Instruction, ...]) -> Run:
    return Run(instructions)


@functools.lru_cache(maxsize=1024)
def resolve_runs(
    instructions: tuple[Instruction, ...],
) -> tuple[tuple[Run, int] | None, ...]:
    """Per-pc ``(run, index)`` entries of a program, ``None`` outside
    runs of at least :data:`MIN_RUN` instructions.

    Memoized process-wide on the instruction tuple, like
    :func:`~repro.core.semantics.resolve_handlers`; runs are shared by
    content across programs.
    """
    end = len(instructions)
    targets = {
        i.target
        for i in instructions
        if i.op in _BRANCH_TEST and isinstance(i.target, int)
    }
    table: list[tuple[Run, int] | None] = [None] * end
    start = None

    def close(stop: int) -> None:
        if start is not None and stop - start >= MIN_RUN:
            run = _run(instructions[start:stop])
            for j in range(stop - start):
                table[start + j] = (run, j)

    for pc in range(end - 1):  # the last instruction never joins a run
        instr = instructions[pc]
        if not blockable(instr):
            close(pc)
            start = None
            continue
        if pc in targets and start is not None:
            close(pc)
            start = None
        if start is None:
            start = pc
        if instr.op in _BRANCH_TEST:
            close(pc + 1)
            start = None
    close(end - 1)
    return tuple(table)


def schedule(
    run_a: Run, a: int, run_b: Run, b: int, ready_b: int, span: int
) -> tuple[int, int, int, int, bool, int, int, int]:
    """Round-robin issue schedule of two threads at runs, memoized on
    ``run_a``.

    Thread A issues index ``a`` of ``run_a`` at offset 0 (so the
    round-robin pointer then favours B); thread B stands at index ``b``
    of ``run_b`` and is ready at offset ``ready_b``. The schedule ends
    when the selected thread's next index lies outside its run, or at
    the first issue offset ``>= span`` (which must exceed 0).

    Returns ``(issued_a, issued_b, ready_a, ready_b, last_is_b,
    switches, bits, last)``: issue counts, the threads' ready offsets
    after the schedule, whether B issued last, thread switches after
    the first issue, the issue offsets after the first as a bit mask,
    and the last issue offset.

    ``ready_b`` is clamped to ``[1, span_a + 1]``, where ``span_a`` is
    when A is ready after issuing the rest of its run alone: B ready
    at offset 0 or 1 behaves the same, and B ready after ``span_a``
    never issues. (The schedule then reports the clamped ``ready_b``;
    callers keep B's own when B issued nothing.)
    """
    cyc = run_a.cyc
    span_a = cyc[run_a.n] - cyc[a]
    if ready_b < 1:
        ready_b = 1
    elif ready_b > span_a:
        ready_b = span_a + 1
    memo = run_a.schedules
    key = (a, run_b, b, ready_b)
    sched = memo.get(key)
    if sched is None:
        if len(memo) >= MAX_SCHEDULES:
            memo.clear()
        # Memoized with no limit; re-derived when the real one cuts it.
        sched = memo[key] = _pair(run_a, a, run_b, b, ready_b, FAR)
    if sched[7] >= span:
        sched = _pair(run_a, a, run_b, b, ready_b, span)
    return sched


def _pair(run_a: Run, a: int, run_b: Run, b: int, ready_b: int,
          span: int) -> tuple[int, int, int, int, bool, int, int, int]:
    pos, ready = [a, b], [0, ready_b]
    codes, cycles, _ = replay((run_a.timing, run_b.timing), pos, ready, 0,
                              0, 0, span, None, None, 0, 0, None)
    bits = switches = 0
    for code, t in zip(codes[1:], cycles[1:]):
        bits |= 1 << t
        switches += code & 1
    return (pos[0] - a, pos[1] - b, ready[0], ready[1], codes[-1] >= 4,
            switches, bits, cycles[-1])
