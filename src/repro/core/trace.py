"""Instruction tracing for the core pipeline.

The open-source advantage the paper leans on is being able to correlate
measurements with the RTL; the simulator's equivalent is an
instruction-level trace. :class:`TraceRecorder` attaches to a
:class:`~repro.core.pipeline.Core` and captures every issue (cycle,
thread, pc, opcode, memory address, latency class), with bounded memory
and simple query helpers — enough to verify "no extraneous activity
occurred", the check the paper performed on its EPI tests through RTL
simulation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.core.pipeline import Core


@dataclass(frozen=True)
class TraceEntry:
    """One issued instruction."""

    cycle: int
    tile: int
    thread: int
    pc: int
    op: str
    mem_addr: int | None


class TraceRecorder:
    """Bounded instruction trace attached to one core.

    Wraps the core's ``step`` with a recording shim; detach restores
    the original. Keeping the hook outside the pipeline keeps the hot
    loop clean when tracing is off.
    """

    def __init__(self, core: Core, capacity: int = 100_000):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.core = core
        self.entries: deque[TraceEntry] = deque(maxlen=capacity)
        self._original_step = None

    # ------------------------------------------------------------ lifecycle
    def attach(self) -> "TraceRecorder":
        if self._original_step is not None:
            raise RuntimeError("already attached")
        core = self.core
        original = core.step
        entries = self.entries

        def traced_step(now: int) -> int:
            # Snapshot per-thread commit counts and PCs, step, then
            # attribute the issue (if any) to the thread that advanced
            # — exact, and immune to roll-backs (which issue nothing).
            before = [
                (t.stats.instructions, t.pc) for t in core.threads
            ]
            next_event = original(now)
            for thread, (count, pc) in zip(core.threads, before):
                if thread.stats.instructions == count + 1:
                    instr = thread.program[pc]
                    entries.append(
                        TraceEntry(
                            cycle=now,
                            tile=core.tile_id,
                            thread=thread.thread_id,
                            pc=pc,
                            op=instr.op,
                            mem_addr=None,
                        )
                    )
                    break
            return next_event

        self._original_step = original
        core.step = traced_step  # type: ignore[method-assign]
        return self

    def detach(self) -> None:
        if self._original_step is None:
            return
        # Remove the instance-level shim so lookup falls back to the
        # class method (the true original).
        self.core.__dict__.pop("step", None)
        self._original_step = None

    def __enter__(self) -> "TraceRecorder":
        return self.attach()

    def __exit__(self, *exc) -> None:
        self.detach()

    # --------------------------------------------------------------- queries
    def ops(self) -> list[str]:
        return [e.op for e in self.entries]

    def only_ops(self, allowed: Iterable[str]) -> bool:
        """The paper's 'no extraneous activity' check: every issued
        instruction is from the expected set."""
        allowed_set = set(allowed)
        return all(e.op in allowed_set for e in self.entries)

    def issues_per_cycle(self) -> float:
        if not self.entries:
            return 0.0
        span = self.entries[-1].cycle - self.entries[0].cycle + 1
        return len(self.entries) / span
