"""Functional semantics of the ISA subset.

Executes one instruction against a thread context and a shared memory,
returning what the pipeline needs for timing and energy: the effective
address (for memory ops), branch outcome, and the operand switching
activity that drives the activity-factor energy model.

Dispatch is a per-opcode handler table rather than an if-chain, and
the handlers read the register files directly: this module sits
directly inside the simulator's issue loop and runs once per executed
instruction — millions of times per experiment. Each op stream gets
its handler tuple once (:func:`resolve_handlers`), so the issue loop
calls ``handlers[pc]`` with no lookup at all. Register reads skip the
``%r0`` guard because nothing ever writes ``regs[0]`` (``write_int``
refuses index 0), so it is always 0.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.isa.instructions import INSTRUCTION_SET, WORD_MASK
from repro.isa.operands import float_bits
from repro.isa.program import Instruction

if TYPE_CHECKING:
    from repro.core.thread import ThreadContext


class SharedMemoryProtocol:
    """Minimal interface semantics needs from memory (duck-typed)."""

    def read(self, addr: int) -> int:  # pragma: no cover - interface stub
        raise NotImplementedError

    def write(self, addr: int, value: int) -> None:  # pragma: no cover
        raise NotImplementedError


@dataclass(slots=True)
class ExecOutcome:
    """Result of functionally executing one instruction.

    ``activity`` is the mean datapath activity factor of the source
    operands (mean set-bit fraction of their 64-bit patterns),
    precomputed by the handler so the pipeline reads a plain float.

    The pipeline reuses one outcome per core, so every handler writes
    each field the pipeline reads for its instruction class:
    ``activity`` always, ``mem_addr`` for memory ops, ``store_value``
    for stores and ``branch_taken`` for branches. The ``is_*`` flags
    are filled by :func:`execute` from the opcode; the pipeline reads
    the opcode's :class:`~repro.isa.instructions.OpcodeInfo` instead.
    """

    mem_addr: int | None = None
    is_load: bool = False
    is_store: bool = False
    is_atomic: bool = False
    store_value: int = 0
    branch_taken: bool | None = None
    activity: float = 0.0
    #: Whether a ``cas`` found its compare value and swapped.
    swapped: bool = False


def _sign64(value: int) -> int:
    value &= WORD_MASK
    return value - (1 << 64) if value >> 63 else value


# ------------------------------------------------------------------ handlers
# Each handler executes one opcode family: updates thread registers and
# PC, fills ``out``. ``thread.advance()`` is inlined (pc bump + end
# check) in the hot handlers.


def _h_nop(instr, thread, memory, out):
    out.activity = 0.0
    pc = thread.pc + 1
    thread.pc = pc
    if pc >= thread.end:
        thread.done = True


def _h_set(instr, thread, memory, out):
    rd = instr.rd
    if rd:
        thread.regs[rd] = instr.imm & WORD_MASK
    out.activity = 0.0
    pc = thread.pc + 1
    thread.pc = pc
    if pc >= thread.end:
        thread.done = True


def _h_mov(instr, thread, memory, out):
    regs = thread.regs
    value = regs[instr.rs1]
    rd = instr.rd
    if rd:
        regs[rd] = value
    out.activity = value.bit_count() / 64.0
    pc = thread.pc + 1
    thread.pc = pc
    if pc >= thread.end:
        thread.done = True


def _make_branch(op: str):
    taken_on_zero = op == "beq"

    def handler(instr, thread, memory, out):
        value = thread.regs[instr.rs1]
        out.activity = value.bit_count() / 64.0
        taken = (value == 0) if taken_on_zero else (value != 0)
        out.branch_taken = taken
        if taken:
            thread.pc = instr.target
        else:
            pc = thread.pc + 1
            thread.pc = pc
            if pc >= thread.end:
                thread.done = True

    return handler


def _h_ldx(instr, thread, memory, out):
    addr = (thread.regs[instr.rs1] + (instr.imm or 0)) & WORD_MASK
    value = memory.read(addr)
    rd = instr.rd
    if rd:
        thread.regs[rd] = value
    out.mem_addr = addr
    out.activity = value.bit_count() / 64.0
    pc = thread.pc + 1
    thread.pc = pc
    if pc >= thread.end:
        thread.done = True


def _h_stx(instr, thread, memory, out):
    regs = thread.regs
    addr = (regs[instr.rs2] + (instr.imm or 0)) & WORD_MASK
    value = regs[instr.rs1]
    out.mem_addr = addr
    out.store_value = value
    out.activity = value.bit_count() / 64.0
    pc = thread.pc + 1
    thread.pc = pc
    if pc >= thread.end:
        thread.done = True


def _h_cas(instr, thread, memory, out):
    regs = thread.regs
    addr = regs[instr.rs1]
    compare = regs[instr.rs2]
    swap = regs[instr.rd]
    old = memory.read(addr)
    swapped = out.swapped = old == compare
    if swapped:
        memory.write(addr, swap)
    rd = instr.rd
    if rd:
        regs[rd] = old
    out.mem_addr = addr
    out.activity = (compare.bit_count() + old.bit_count()) / 128.0
    pc = thread.pc + 1
    thread.pc = pc
    if pc >= thread.end:
        thread.done = True


def _make_int(fn):
    def handler(instr, thread, memory, out):
        regs = thread.regs
        a = regs[instr.rs1]
        rs2 = instr.rs2
        b = (instr.imm & WORD_MASK) if rs2 is None else regs[rs2]
        out.activity = (a.bit_count() + b.bit_count()) / 128.0
        rd = instr.rd
        if rd:
            regs[rd] = fn(a, b) & WORD_MASK
        pc = thread.pc + 1
        thread.pc = pc
        if pc >= thread.end:
            thread.done = True

    return handler


def _make_fp(fn):
    def handler(instr, thread, memory, out):
        fregs = thread.fregs
        a = fregs[instr.rs1]
        b = fregs[instr.rs2]
        out.activity = (
            float_bits(a).bit_count() + float_bits(b).bit_count()
        ) / 128.0
        fregs[instr.rd] = fn(a, b)
        pc = thread.pc + 1
        thread.pc = pc
        if pc >= thread.end:
            thread.done = True

    return handler


def _sdivx(a: int, b: int) -> int:
    if b == 0:
        return WORD_MASK  # SPARC would trap; saturate instead
    q = abs(_sign64(a)) // abs(_sign64(b))
    if (_sign64(a) < 0) != (_sign64(b) < 0):
        q = -q
    return q


def _fp_div(a: float, b: float) -> float:
    if b == 0.0:
        return float("inf")
    return a / b


_HANDLERS = {
    "nop": _h_nop,
    "set": _h_set,
    "mov": _h_mov,
    "beq": _make_branch("beq"),
    "bne": _make_branch("bne"),
    "ldx": _h_ldx,
    "stx": _h_stx,
    "cas": _h_cas,
    "add": _make_int(operator.add),
    "sub": _make_int(operator.sub),
    "and": _make_int(operator.and_),
    "or": _make_int(operator.or_),
    "xor": _make_int(operator.xor),
    "sll": _make_int(lambda a, b: a << (b & 63)),
    "srl": _make_int(lambda a, b: a >> (b & 63)),
    "mulx": _make_int(operator.mul),
    "sdivx": _make_int(_sdivx),
    "faddd": _make_fp(operator.add),
    "fsubd": _make_fp(operator.sub),
    "fmuld": _make_fp(operator.mul),
    "fdivd": _make_fp(_fp_div),
    "fadds": _make_fp(operator.add),
    "fsubs": _make_fp(operator.sub),
    "fmuls": _make_fp(operator.mul),
    "fdivs": _make_fp(_fp_div),
}


Handler = Callable[[Instruction, "ThreadContext", SharedMemoryProtocol,
                    ExecOutcome], None]


@functools.lru_cache(maxsize=1024)
def resolve_handlers(ops: tuple[str, ...]) -> tuple[Handler, ...]:
    """The per-instruction handler table for an op list.

    Memoized process-wide on the opcode-name tuple, like
    :func:`~repro.isa.program.resolve_infos`: every thread running the
    same instruction stream shares one tuple.
    """
    return tuple(_handler(op) for op in ops)


def _handler(op: str) -> Handler:
    handler = _HANDLERS.get(op)
    if handler is None:
        raise ValueError(f"unhandled op {op!r}")
    return handler


def execute(
    instr: Instruction,
    thread: "ThreadContext",
    memory: SharedMemoryProtocol,
) -> ExecOutcome:
    """Execute ``instr``, updating ``thread`` registers and PC.

    Memory *values* move here, but memory *timing and coherence* are the
    pipeline's job: loads read the architectural memory immediately
    (correct because the coherent system serializes transactions), and
    stores return their value for the store buffer to drain later.

    The single-instruction entry point: it dispatches through the same
    handler table as the issue loop, into a fresh outcome.
    """
    handler = _handler(instr.op)
    info = INSTRUCTION_SET[instr.op]
    out = ExecOutcome(
        is_load=info.is_load,
        is_store=info.is_store,
        is_atomic=info.is_atomic,
    )
    handler(instr, thread, memory, out)
    return out
