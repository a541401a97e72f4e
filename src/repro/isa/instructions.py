"""Instruction set definition with the paper's measured latencies.

Table VI of the paper lists the latency, in core clock cycles, used in
every EPI calculation; those latencies are encoded here verbatim and
are also the timing ground truth for the pipeline model. Instructions
the paper does not characterize (``sub``, ``or``, ``set``, ...) reuse
the single-cycle ALU timing, which is how the OpenSPARC T1 executes
them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping


class Unit(enum.Enum):
    """Execution resource an instruction occupies."""

    NONE = "none"  # nop
    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    FPU = "fpu"
    MEM = "mem"
    BRANCH = "branch"


class InstrClass(enum.Enum):
    """Energy-accounting class (one bar group in Figure 11)."""

    NOP = "nop"
    INT_LOGIC = "int_logic"
    INT_ADD = "int_add"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    FP_ADD_D = "fp_add_d"
    FP_MUL_D = "fp_mul_d"
    FP_DIV_D = "fp_div_d"
    FP_ADD_S = "fp_add_s"
    FP_MUL_S = "fp_mul_s"
    FP_DIV_S = "fp_div_s"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"


#: InstrClass -> dense integer id, in declaration order. The pipeline
#: accumulates per-class event counts in flat arrays indexed by these
#: ids instead of hashing ``instr.<class>`` strings per instruction.
INSTR_CLASS_INDEX: Mapping[InstrClass, int] = {
    c: i for i, c in enumerate(InstrClass)
}

#: Interned ledger event name for each class id ("instr.<class>").
INSTR_EVENT_NAMES: tuple[str, ...] = tuple(
    f"instr.{c.value}" for c in InstrClass
)

NUM_INSTR_CLASSES = len(INSTR_EVENT_NAMES)


@dataclass(frozen=True)
class OpcodeInfo:
    """Static properties of one opcode.

    ``latency`` is the Table VI latency: the number of cycles the
    issuing thread is occupied before a dependent instruction could
    issue (for stores, the store-buffer drain time; for loads, the
    L1-hit use latency). ``class_index`` is the dense id of
    ``instr_class`` (see :data:`INSTR_CLASS_INDEX`). ``is_atomic``
    marks the read-modify-write performed at the home L2 (``cas``).
    """

    name: str
    unit: Unit
    instr_class: InstrClass
    latency: int
    is_fp: bool = False
    is_load: bool = False
    is_store: bool = False
    is_branch: bool = False
    is_atomic: bool = False
    num_sources: int = 2
    has_dest: bool = True
    class_index: int = 0


def _op(name, unit, iclass, latency, **kw) -> tuple[str, OpcodeInfo]:
    kw.setdefault("class_index", INSTR_CLASS_INDEX[iclass])
    return name, OpcodeInfo(name, unit, iclass, latency, **kw)


INSTRUCTION_SET: Mapping[str, OpcodeInfo] = dict(
    [
        _op("nop", Unit.NONE, InstrClass.NOP, 1, num_sources=0, has_dest=False),
        # Integer, 64-bit (Table VI: and 1, add 1, mulx 11, sdivx 72).
        _op("and", Unit.ALU, InstrClass.INT_LOGIC, 1),
        _op("or", Unit.ALU, InstrClass.INT_LOGIC, 1),
        _op("xor", Unit.ALU, InstrClass.INT_LOGIC, 1),
        _op("add", Unit.ALU, InstrClass.INT_ADD, 1),
        _op("sub", Unit.ALU, InstrClass.INT_ADD, 1),
        _op("sll", Unit.ALU, InstrClass.INT_LOGIC, 1),
        _op("srl", Unit.ALU, InstrClass.INT_LOGIC, 1),
        _op("mulx", Unit.MUL, InstrClass.INT_MUL, 11),
        _op("sdivx", Unit.DIV, InstrClass.INT_DIV, 72),
        # Register moves / immediates (T1: single-cycle ALU ops).
        _op("mov", Unit.ALU, InstrClass.INT_ADD, 1, num_sources=1),
        _op("set", Unit.ALU, InstrClass.INT_ADD, 1, num_sources=0),
        # FP double precision (Table VI: faddd 22, fmuld 25, fdivd 79).
        _op("faddd", Unit.FPU, InstrClass.FP_ADD_D, 22, is_fp=True),
        _op("fsubd", Unit.FPU, InstrClass.FP_ADD_D, 22, is_fp=True),
        _op("fmuld", Unit.FPU, InstrClass.FP_MUL_D, 25, is_fp=True),
        _op("fdivd", Unit.FPU, InstrClass.FP_DIV_D, 79, is_fp=True),
        # FP single precision (Table VI: fadds 22, fmuls 25, fdivs 50).
        _op("fadds", Unit.FPU, InstrClass.FP_ADD_S, 22, is_fp=True),
        _op("fsubs", Unit.FPU, InstrClass.FP_ADD_S, 22, is_fp=True),
        _op("fmuls", Unit.FPU, InstrClass.FP_MUL_S, 25, is_fp=True),
        _op("fdivs", Unit.FPU, InstrClass.FP_DIV_S, 50, is_fp=True),
        # Memory, 64-bit (Table VI: ldx 3 on L1 hit, stx 10).
        _op("ldx", Unit.MEM, InstrClass.LOAD, 3, is_load=True, num_sources=1),
        _op(
            "stx",
            Unit.MEM,
            InstrClass.STORE,
            10,
            is_store=True,
            num_sources=2,
            has_dest=False,
        ),
        # Atomic compare-and-swap (SPARC CASX): performed at the home L2
        # slice as on the T1; nominal latency is the local-L2 round trip
        # and the real latency is computed by the memory system.
        _op(
            "cas",
            Unit.MEM,
            InstrClass.STORE,
            34,
            is_atomic=True,
            num_sources=2,
            has_dest=True,
        ),
        # Control (Table VI: beq taken 3, bne not-taken 3). Branches
        # compare one register against zero (documented simplification).
        _op(
            "beq",
            Unit.BRANCH,
            InstrClass.BRANCH,
            3,
            is_branch=True,
            num_sources=1,
            has_dest=False,
        ),
        _op(
            "bne",
            Unit.BRANCH,
            InstrClass.BRANCH,
            3,
            is_branch=True,
            num_sources=1,
            has_dest=False,
        ),
    ]
)

# Latency overrides used by the memory-system study (Table VII) are not
# stored here: load latency beyond an L1 hit is *computed* by the cache
# hierarchy and off-chip models at run time.

NUM_INT_REGS = 32
NUM_FP_REGS = 32
WORD_MASK = (1 << 64) - 1


def opcode(name: str) -> OpcodeInfo:
    """Look up one opcode, with a helpful error for typos."""
    try:
        return INSTRUCTION_SET[name]
    except KeyError:
        raise KeyError(
            f"unknown opcode {name!r}; known: {sorted(INSTRUCTION_SET)}"
        ) from None
