"""Instruction tracing for the core pipeline.

The open-source advantage the paper leans on is being able to correlate
measurements with the RTL; the simulator's equivalent is an
instruction-level trace. :class:`TraceRecorder` attaches to a
:class:`~repro.core.pipeline.Core` and captures every issue (cycle,
thread, pc, opcode), with bounded memory and simple query helpers —
enough to verify "no extraneous activity occurred", the check the paper
performed on its EPI tests through RTL simulation.

One step can issue a whole block (see :mod:`repro.core.pipeline`). The
recorder learns from each step how many instructions every thread
committed and orders those issues by their static latencies with
:func:`~repro.core.spin.replay`, the core's round-robin from the
step's cycle and pointer, so every entry carries its real cycle,
thread and pc, whether it issued alone or inside a block. A block
never holds a load, store or ``cas``, so a memory op always issues
alone, and its entry carries the address the issue computed.

A parked core (see :mod:`repro.core.multicore`) issues without steps.
The recorder also wraps :meth:`Core.unpark`, which accounts a parked
core's issues in bulk, and records each of them from the core's
:class:`~repro.core.spin.Schedule`: its real cycle, thread, pc, op
and, for a load, store or ``cas``, its address.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.core.pipeline import Core
from repro.core.spin import FAR, replay
from repro.isa.instructions import Unit


@dataclass(frozen=True)
class TraceEntry:
    """One issued instruction; ``mem_addr`` is the effective address of
    an ``ldx``/``stx``/``cas`` and ``None`` for every other op."""

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
            # Snapshot what thread selection reads, step, then replay
            # the selection over the issues each thread committed —
            # exact, and immune to roll-backs (which issue nothing).
            threads = core.threads
            before = [
                (t.stats.instructions, t.pc, t.ready_at, t.done)
                for t in threads
            ]
            rr = core._rr_next
            next_event = original(now)
            left = [
                t.stats.instructions - count
                for t, (count, *_) in zip(threads, before)
            ]
            if any(left):
                _record(core, before, rr, left, now, entries)
            return next_event

        original_unpark = core.unpark

        def traced_unpark(now: int) -> int:
            schedule = core.parked
            for cycle, sel, pos in schedule.issues(now):
                loop = schedule.loops[sel]
                thread = core.threads[sel]
                pc = loop.pcs[pos]
                entries.append(
                    TraceEntry(
                        cycle=cycle,
                        tile=core.tile_id,
                        thread=thread.thread_id,
                        pc=pc,
                        op=thread.program[pc].op,
                        mem_addr=loop.addrs[pos],
                    )
                )
            return original_unpark(now)

        self._original_step = original
        core.step = traced_step  # type: ignore[method-assign]
        core.unpark = traced_unpark  # type: ignore[method-assign]
        return self

    def detach(self) -> None:
        if self._original_step is None:
            return
        # Remove the instance-level shims so lookup falls back to the
        # class methods (the true originals).
        self.core.__dict__.pop("step", None)
        self.core.__dict__.pop("unpark", None)
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


def _record(core: Core, before, rr: int, left: list[int], now: int,
            entries) -> None:
    """Append the issues one step made: ``left[i]`` instructions of
    thread ``i`` from its pc, replayed round-robin from pointer ``rr``
    at cycle ``now``. Only a block issues more than one, and a block's
    instructions are sequential register-only ops whose latencies are
    static. A memory op issues alone, so the core's outcome still holds
    its address."""
    threads = core.threads
    pcs = [pc for _, pc, _, _ in before]
    tables = []
    for thread, k, pc, (*_, done) in zip(threads, left, pcs, before):
        lats = [info.latency for info in thread.infos[pc:pc + k]]
        tables.append(None if done else ((*lats, None), (-1,) * (k + 1)))
    codes, cycles, _ = replay(
        tables, [0] * len(threads), [r for _, _, r, _ in before], rr, None,
        now, FAR, None, None, 0, 0, None,
    )
    for code, cycle in zip(codes, cycles):
        thread = threads[code >> 2]
        pc = pcs[code >> 2]
        pcs[code >> 2] = pc + 1
        entries.append(
            TraceEntry(
                cycle=cycle,
                tile=core.tile_id,
                thread=thread.thread_id,
                pc=pc,
                op=thread.program[pc].op,
                mem_addr=(
                    core._outcome.mem_addr
                    if thread.infos[pc].unit is Unit.MEM else None
                ),
            )
        )
