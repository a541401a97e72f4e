"""Per-thread architectural state and run statistics."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.blocks import resolve_runs
from repro.core.semantics import resolve_handlers
from repro.isa.instructions import NUM_FP_REGS, NUM_INT_REGS, WORD_MASK
from repro.isa.program import Program


@dataclass
class ThreadStats:
    """Committed-work counters for one hardware thread."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    branches_taken: int = 0
    rollbacks: int = 0
    iterations: int = 0  # taken branches to their own or an earlier pc

    def merge(self, other: "ThreadStats") -> None:
        self.instructions += other.instructions
        self.loads += other.loads
        self.stores += other.stores
        self.branches += other.branches
        self.branches_taken += other.branches_taken
        self.rollbacks += other.rollbacks
        self.iterations += other.iterations


@dataclass
class ThreadContext:
    """One hardware thread: program, registers, and readiness.

    ``ready_at`` is the next cycle at which the thread may issue.
    ``done`` becomes True when the PC runs off the end of the program
    (infinite-loop tests never finish; fixed-iteration runs do).

    ``instructions``/``infos``/``end`` mirror the program's instruction
    list, resolved info list, and length — cached here so the issue
    loop reads them without attribute chains through ``program``.
    ``handlers`` is the stream's memoized semantics handler table
    (see :func:`~repro.core.semantics.resolve_handlers`), and ``runs``
    its memoized per-pc block-issue entries (see
    :func:`~repro.core.blocks.resolve_runs`).
    """

    thread_id: int
    program: Program
    pc: int = 0
    ready_at: int = 0
    done: bool = False
    regs: list[int] = field(default_factory=lambda: [0] * NUM_INT_REGS)
    fregs: list[float] = field(default_factory=lambda: [0.0] * NUM_FP_REGS)
    stats: ThreadStats = field(default_factory=ThreadStats)
    #: The fixed-point loop (:class:`~repro.core.spin.Loop`) the
    #: thread last ran, and its instruction count at the loop's head;
    #: and the registers at the last loop head and its pc (see
    #: ``Core._loop_head``).
    loop: object = field(default=None, repr=False, compare=False)
    loop_mark: int = field(default=0, repr=False, compare=False)
    mark: list = field(default=None, repr=False, compare=False)
    mark_pc: int = field(default=-1, repr=False, compare=False)
    instructions: list = field(init=False, repr=False, compare=False)
    infos: list = field(init=False, repr=False, compare=False)
    handlers: tuple = field(init=False, repr=False, compare=False)
    runs: tuple = field(init=False, repr=False, compare=False)
    end: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.instructions = self.program.instructions
        self.infos = self.program.infos
        self.handlers = resolve_handlers(
            tuple(i.op for i in self.instructions)
        )
        self.runs = resolve_runs(tuple(self.instructions))
        self.end = len(self.instructions)

    def read_int(self, index: int) -> int:
        if index == 0:
            return 0  # %r0 is hard-wired zero, as on SPARC's %g0
        return self.regs[index]

    def write_int(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = value & WORD_MASK

    def read_fp(self, index: int) -> float:
        return self.fregs[index]

    def write_fp(self, index: int, value: float) -> None:
        self.fregs[index] = value

    def advance(self) -> None:
        """Move to the next sequential instruction."""
        self.pc += 1
        if self.pc >= self.end:
            self.done = True

    def jump(self, target: int) -> None:
        self.pc = target

    @property
    def finished(self) -> bool:
        return self.done
