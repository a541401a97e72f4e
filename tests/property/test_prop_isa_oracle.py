"""An independent per-opcode oracle for the ISA subset.

:func:`reference` restates each opcode from SPARC-V9 semantics and the
model's documented choices, without reading :mod:`repro.core.semantics`
or the block compiler:

* registers are 64 bits wide and every integer result is taken modulo
  2**64; ``%r0`` reads 0 and writes to it are dropped;
* ``sllx``/``srlx``-style shifts use the low 6 bits of the count;
* ``sdivx`` truncates toward zero and, where SPARC would trap on a zero
  divisor, saturates to all-ones;
* FP registers hold doubles, the single-precision opcodes compute on
  them unchanged, and ``fdivd``/``fdivs`` by (either signed) zero give
  ``+inf``;
* branches test one register against zero;
* the energy model's operand activity is the set-bit count of the
  source operands over 128 bits (one source over 64 bits for ``mov``,
  branches and loads); ``nop`` and ``set`` have none.

Both :func:`repro.core.semantics.execute` and the block compiler
(:mod:`repro.core.blocks`) must agree with it, on seeded random and
edge operands per opcode (the way coreblocks' ``FunctionalUnitTestCase``
drives a functional unit) and on long runs. FP values compare bit for
bit.
"""

from __future__ import annotations

import math
import random
import struct
from fractions import Fraction

import pytest

from repro.core.blocks import Run, blockable
from repro.core.multicore import SharedMemory
from repro.core.semantics import execute
from repro.core.thread import ThreadContext
from repro.isa.instructions import INSTRUCTION_SET, NUM_INSTR_CLASSES
from repro.isa.program import Instruction, Program

#: Random operand tests per opcode, and the seed they are drawn from.
NUMBER_OF_TESTS = 60
SEED = 40

WORD = 1 << 64
INT_EDGES = (0, 1, WORD - 1, 1 << 63, (1 << 63) - 1, 63, 64,
             0x5555555555555555, 0xAAAAAAAAAAAAAAAA)
FP_EDGES = (0.0, -0.0, math.inf, -math.inf, 1.0, -1.5, 5e-324,
            1.7976931348623157e308, -2.5e-300)
REGS = 8  # %r0..%r7 / %f0..%f7 are used as operands


def _signed(value: int) -> int:
    return value - WORD if value >= 1 << 63 else value


def _sdivx(a: int, b: int) -> int:
    if b == 0:
        return WORD - 1  # saturate where SPARC would trap
    return int(Fraction(_signed(a), _signed(b)))  # truncates toward 0


INT_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: a << (b % 64),
    "srl": lambda a, b: a >> (b % 64),
    "mulx": lambda a, b: a * b,
    "sdivx": _sdivx,
}


def _fdiv(a: float, b: float) -> float:
    return math.inf if b == 0 else a / b


FP_OPS = {
    "faddd": lambda a, b: a + b,
    "fsubd": lambda a, b: a - b,
    "fmuld": lambda a, b: a * b,
    "fdivd": _fdiv,
    "fadds": lambda a, b: a + b,
    "fsubs": lambda a, b: a - b,
    "fmuls": lambda a, b: a * b,
    "fdivs": _fdiv,
}

REGISTER_OPS = sorted(INT_OPS) + sorted(FP_OPS) + [
    "beq", "bne", "mov", "set", "nop"
]


def _bits(value: float) -> int:
    return int.from_bytes(struct.pack("<d", value), "little")


def _ones(value: int) -> int:
    return bin(value).count("1")


def reference(instr: Instruction, regs: list[int], fregs: list[float],
              memory: dict[int, int]):
    """One instruction's architectural effect.

    Returns ``(regs, fregs, memory, taken, activity)`` with new
    register files and memory, the branch outcome (``None`` for
    non-branches) and the activity in 1/128ths.
    """
    r, f, mem = list(regs), list(fregs), dict(memory)

    def read(index: int) -> int:
        return 0 if index == 0 else r[index]

    def write(index: int | None, value: int) -> None:
        if index:
            r[index] = value % WORD

    op = instr.op
    if op in INT_OPS:
        a = read(instr.rs1)
        b = read(instr.rs2) if instr.rs2 is not None else instr.imm % WORD
        write(instr.rd, INT_OPS[op](a, b))
        return r, f, mem, None, _ones(a) + _ones(b)
    if op in FP_OPS:
        a, b = f[instr.rs1], f[instr.rs2]
        f[instr.rd] = FP_OPS[op](a, b)
        return r, f, mem, None, _ones(_bits(a)) + _ones(_bits(b))
    if op in ("beq", "bne"):
        value = read(instr.rs1)
        taken = (value == 0) if op == "beq" else (value != 0)
        return r, f, mem, taken, 2 * _ones(value)
    if op == "mov":
        value = read(instr.rs1)
        write(instr.rd, value)
        return r, f, mem, None, 2 * _ones(value)
    if op == "set":
        write(instr.rd, instr.imm)
        return r, f, mem, None, 0
    if op == "nop":
        return r, f, mem, None, 0
    word = lambda addr: addr % WORD // 8  # noqa: E731 - 8-byte words
    if op == "ldx":
        value = mem.get(word(read(instr.rs1) + instr.imm), 0)
        write(instr.rd, value)
        return r, f, mem, None, 2 * _ones(value)
    if op == "stx":
        value = read(instr.rs1)
        mem[word(read(instr.rs2) + instr.imm)] = value
        return r, f, mem, None, 2 * _ones(value)
    if op == "cas":
        addr, compare, swap = read(instr.rs1), read(instr.rs2), read(instr.rd)
        old = mem.get(word(addr), 0)
        if old == compare:
            mem[word(addr)] = swap
        write(instr.rd, old)
        return r, f, mem, None, _ones(compare) + _ones(old)
    raise AssertionError(f"no reference for {op}")


# ----------------------------------------------------------------- operands
def _int_operand(rng: random.Random) -> int:
    if rng.random() < 0.3:
        return rng.choice(INT_EDGES)
    return rng.getrandbits(64)


def _fp_operand(rng: random.Random) -> float:
    if rng.random() < 0.3:
        return rng.choice(FP_EDGES)
    return rng.uniform(-4.0, 4.0) * 2.0 ** rng.randint(-60, 60)


def _registers(rng: random.Random) -> tuple[list[int], list[float]]:
    regs = [0] + [_int_operand(rng) for _ in range(31)]
    fregs = [_fp_operand(rng) for _ in range(32)]
    return regs, fregs


def _instruction(op: str, rng: random.Random) -> Instruction:
    reg = lambda: rng.randrange(REGS)  # noqa: E731 - includes %r0
    if op in INT_OPS:
        if rng.random() < 0.3:
            return Instruction(op, rd=reg(), rs1=reg(),
                               imm=rng.choice((_int_operand(rng),
                                               rng.randrange(-64, 128))))
        return Instruction(op, rd=reg(), rs1=reg(), rs2=reg())
    if op in FP_OPS:
        return Instruction(op, rd=reg(), rs1=reg(), rs2=reg())
    if op in ("beq", "bne"):
        return Instruction(op, rs1=reg(), target=rng.randrange(4))
    if op == "mov":
        return Instruction(op, rd=reg(), rs1=reg())
    if op == "set":
        return Instruction(op, rd=reg(), imm=_int_operand(rng))
    if op == "ldx":
        return Instruction(op, rd=reg(), rs1=reg(), imm=rng.randrange(64))
    if op == "stx":
        return Instruction(op, rs1=reg(), rs2=reg(), imm=rng.randrange(64))
    if op == "cas":
        return Instruction(op, rd=reg(), rs1=reg(), rs2=reg())
    return Instruction(op)


def _fp_bits(fregs: list[float]) -> list[int]:
    return [_bits(v) for v in fregs]


def _class(op: str) -> int:
    return INSTRUCTION_SET[op].class_index


def test_every_opcode_has_a_reference():
    assert set(REGISTER_OPS) | {"ldx", "stx", "cas"} == set(INSTRUCTION_SET)


# ----------------------------------------------------------- semantics.execute
@pytest.mark.parametrize("op", REGISTER_OPS + ["ldx", "stx", "cas"])
def test_execute_matches_reference(op):
    rng = random.Random(f"{SEED}-{op}")
    for _ in range(NUMBER_OF_TESTS):
        instr = _instruction(op, rng)
        regs, fregs = _registers(rng)
        image = {}
        if op in ("ldx", "cas"):
            # Plant the word the op reads (half the time equal to the
            # compare value, so both cas outcomes occur).
            addr = (regs[instr.rs1] + (instr.imm or 0)) % WORD
            value = rng.choice((_int_operand(rng), regs[instr.rs2 or 0]))
            image[addr // 8] = value
        want_r, want_f, want_mem, taken, activity = reference(
            instr, regs, fregs, image
        )
        memory = SharedMemory()
        for word, value in image.items():
            memory.write(word * 8, value)
        thread = ThreadContext(0, Program([instr, Instruction("nop")]))
        thread.regs[:] = regs
        thread.fregs[:] = fregs
        out = execute(instr, thread, memory)
        assert thread.regs == want_r, instr
        assert _fp_bits(thread.fregs) == _fp_bits(want_f), instr
        assert out.activity * 128 == activity, instr
        if op in ("beq", "bne"):
            assert out.branch_taken == taken, instr
            assert thread.pc == (instr.target if taken else 1)
        else:
            assert thread.pc == 1
        if op == "stx":
            [(word, value)] = want_mem.items()
            assert (out.mem_addr // 8, out.store_value) == (word, value)
        else:
            for word, value in want_mem.items():
                assert memory.read(word * 8) == value, instr


# --------------------------------------------------------- the block compiler
def _run_block(run: Run, regs, fregs, start: int, stop: int):
    counts = [0.0] * NUM_INSTR_CLASSES
    weights = [0.0] * NUM_INSTR_CLASSES
    regs, fregs = list(regs), list(fregs)
    if start == 0 and stop == run.n:
        taken = run.full(regs, fregs, counts, weights)
    else:
        taken = run.part(regs, fregs, counts, weights, start, stop)
    return regs, fregs, taken, counts, weights


def _reference_range(instrs, regs, fregs, start: int, stop: int):
    counts = [0] * NUM_INSTR_CLASSES
    activity = [0] * NUM_INSTR_CLASSES
    taken = None
    for instr in instrs[start:stop]:
        regs, fregs, _, taken, act = reference(instr, regs, fregs, {})
        counts[_class(instr.op)] += 1
        activity[_class(instr.op)] += act
    return regs, fregs, taken, counts, activity


def _assert_block_matches(instrs, regs, fregs, start, stop):
    run = Run(tuple(instrs))
    got_r, got_f, got_taken, counts, weights = _run_block(
        run, regs, fregs, start, stop
    )
    want_r, want_f, want_taken, want_counts, activity = _reference_range(
        instrs, regs, fregs, start, stop
    )
    assert got_r == want_r
    assert _fp_bits(got_f) == _fp_bits(want_f)
    assert got_taken == want_taken
    assert counts == want_counts
    assert [w * 128 for w in weights] == activity


@pytest.mark.parametrize("op", REGISTER_OPS)
def test_block_single_instruction_matches_reference(op):
    rng = random.Random(f"{SEED}-block-{op}")
    for _ in range(NUMBER_OF_TESTS):
        instr = _instruction(op, rng)
        assert blockable(instr)
        regs, fregs = _registers(rng)
        _assert_block_matches([instr], regs, fregs, 0, 1)
        _assert_block_matches([instr], regs, fregs, 0, 0)


def _random_run(rng: random.Random, length: int) -> list[Instruction]:
    body = [
        _instruction(rng.choice(REGISTER_OPS[:-5] + ["mov", "set", "nop"]),
                     rng)
        for _ in range(length - 1)
    ]
    last = rng.choice(REGISTER_OPS)
    return body + [_instruction(last, rng)]


@pytest.mark.parametrize("case", range(12))
def test_block_long_runs_match_reference(case):
    """Long runs (registers reused, so results chain from op to op),
    whole and cut at random start/stop indices."""
    rng = random.Random(f"{SEED}-runs-{case}")
    for _ in range(NUMBER_OF_TESTS // 4):
        instrs = _random_run(rng, rng.randrange(4, 61))
        regs, fregs = _registers(rng)
        _assert_block_matches(instrs, regs, fregs, 0, len(instrs))
        start = rng.randrange(len(instrs))
        stop = rng.randrange(start, len(instrs) + 1)
        _assert_block_matches(instrs, regs, fregs, start, stop)
