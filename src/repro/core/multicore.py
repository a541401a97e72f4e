"""Multicore engine and the shared functional memory.

The engine advances the cores in cycle order against the shared
coherent memory system, but steps a core only at the cycles where it
has something to do: each step returns the core's next-event cycle,
and until that cycle comes the core is left alone and its cycles are
counted as stall cycles in bulk. Idle gaps (every core stalled on a
long latency) are fast-forwarded. The cost of simulation thus scales
with instructions issued and memory transactions, not with cycles
elapsed or with stall bookkeeping.

A *visit* is a cycle the run loop stops at because some core has an
event due. A core's step may issue a *block* (see
:mod:`repro.core.pipeline`), many register-only issues at once, and
the cycles of its issues after the first are then visits no loop
iteration makes. The engine keeps them as a bit mask of *virtual
visits* and accounts them as the visits per-instruction stepping would
have made, which two behaviours depend on:

* a draining core (every thread finished, stores still buffered) is
  stepped at every visit, and a visited cycle is not a stall for it,
  while a fast-forwarded one is;
* fast-forwarded stall cycles enter the ledger through one
  ``record("core.stall_cycle", ...)`` ahead of the cores' flushes, so
  whether any cycle was fast-forwarded decides where that key sits
  (and :meth:`~repro.power.chip_power.ChipPowerModel.event_power`
  sums in key order).

So a virtual visit counts as a visit, never as a fast-forwarded cycle.
Every block issue cycle lies below the run deadline, the
``max_cycles`` bound and the next invariant sweep, which therefore
happen at the same real visits as under per-instruction stepping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.params import PitonConfig
from repro.cache.system import CoherentMemorySystem
from repro.core.pipeline import Core
from repro.isa.program import Program
from repro.util.events import EventLedger


class SharedMemory:
    """Flat 64-bit-word architectural memory shared by all cores.

    Addresses are byte addresses; reads/writes operate on the aligned
    8-byte word containing the address (the ISA subset is ldx/stx only).
    Unwritten memory reads as zero.
    """

    def __init__(self):
        self._words: dict[int, int] = {}

    @staticmethod
    def _word(addr: int) -> int:
        return addr >> 3

    def read(self, addr: int) -> int:
        return self._words.get(self._word(addr), 0)

    def write(self, addr: int, value: int) -> None:
        self._words[self._word(addr)] = value & ((1 << 64) - 1)

    def load_image(self, image: dict[int, int]) -> None:
        """Pre-load {byte_addr: value} pairs (test fixtures)."""
        for addr, value in image.items():
            self.write(addr, value)


@dataclass
class RunResult:
    """Outcome of one engine run."""

    cycles: int
    instructions: int
    completed: bool

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


class MulticoreEngine:
    """Steps a set of cores, each when it is due, over shared memory."""

    #: Cycle interval between full invariant sweeps when a checker is
    #: installed (sweeps also run once at the end of every run).
    CHECK_INTERVAL = 4096

    def __init__(
        self,
        config: PitonConfig | None = None,
        ledger: EventLedger | None = None,
        memsys: CoherentMemorySystem | None = None,
        execution_drafting: bool = False,
        checker=None,
    ):
        self.config = config or PitonConfig()
        self.ledger = ledger if ledger is not None else EventLedger()
        self.memsys = memsys or CoherentMemorySystem(
            self.config, ledger=self.ledger
        )
        self.memory = SharedMemory()
        self.cores: dict[int, Core] = {}
        self.execution_drafting = execution_drafting
        #: Optional :class:`repro.check.CheckSuite`; ``None`` (the
        #: default) keeps the run loop check-free.
        self.checker = checker
        self.now = 0

    def add_core(
        self,
        tile_id: int,
        programs: list[Program],
        init_regs: dict[int, int] | None = None,
        init_fregs: dict[int, float] | None = None,
    ) -> Core:
        """Activate ``tile_id`` with one program per hardware thread.

        ``init_regs``/``init_fregs`` pre-load architectural registers in
        every thread — how the EPI assembly tests plant their minimum /
        random / maximum operand values (the real tests do this with a
        setup preamble; pre-loading keeps the measured loop pure).
        """
        if tile_id in self.cores:
            raise ValueError(f"tile {tile_id} already active")
        if not 0 <= tile_id < self.config.tile_count:
            raise ValueError(f"tile {tile_id} out of range")
        core = Core(
            tile_id,
            self.config,
            self.memsys,
            self.memory,
            self.ledger,
            programs,
            execution_drafting=self.execution_drafting,
        )
        for thread in core.threads:
            for reg, value in (init_regs or {}).items():
                thread.write_int(reg, value)
            for reg, value in (init_fregs or {}).items():
                thread.write_fp(reg, value)
        self.cores[tile_id] = core
        return core

    @property
    def total_instructions(self) -> int:
        return sum(c.stats.issued for c in self.cores.values())

    def run(
        self,
        cycles: int | None = None,
        until_done: bool = False,
        max_cycles: int = 50_000_000,
    ) -> RunResult:
        """Run for ``cycles`` cycles, or until every thread finishes.

        Returns cycle and instruction counts for the run window.
        ``max_cycles`` bounds ``until_done`` so a livelocked workload
        fails loudly instead of hanging.
        """
        if not self.cores:
            raise RuntimeError("no active cores")
        if cycles is None and not until_done:
            raise ValueError("specify cycles or until_done")
        start_cycle = self.now
        start_instrs = self.total_instructions
        deadline = None if cycles is None else self.now + cycles
        cores = list(self.cores.values())
        active = [c for c in cores if not c.done]
        far_future = 1 << 62
        ff_stall_events = 0
        checker = self.checker
        next_check = (
            self.now + self.CHECK_INTERVAL
            if checker is not None
            else far_future
        )
        # Block issue cycles stay below every cycle the loop checks.
        stop_at = start_cycle + max_cycles
        if deadline is not None and deadline < stop_at:
            stop_at = deadline
        limit = min(stop_at, next_check)
        for core in active:
            core.issue_limit = limit
        # A visit is a cycle the loop stops at. A core is stepped at a
        # visit only when its next event is due, or while no thread of
        # it is unfinished: a visited cycle of a core that only drains
        # its store buffer is not a stall, so that core must step.
        # Every visit a core sits out counts as a stall cycle, charged
        # when it next steps or when the run ends. (Fast-forwarded
        # cycles count as stalls for every active core, draining or
        # not.) Bit j of ``virtual`` marks cycle now + j as an issue
        # cycle of a block in flight: a visit the loop skips.
        visit = 0
        virtual = 0
        for core in active:
            core.stepped_visit = 0

        try:
            while active:
                now = self.now
                if checker is not None and now >= next_check:
                    checker.check_engine(self)
                    next_check = now + self.CHECK_INTERVAL
                    limit = min(stop_at, next_check)
                    for core in active:
                        core.issue_limit = limit
                if deadline is not None and now >= deadline:
                    break
                if now - start_cycle >= max_cycles:
                    raise RuntimeError(
                        f"workload did not finish within {max_cycles} cycles"
                    )
                visit += 1
                next_now = far_future
                finished = False
                for core in active:
                    next_event = core.next_event
                    if next_event <= now or not core._undone:
                        idle = visit - core.stepped_visit - 1
                        if idle:
                            core.charge_stalls(idle)
                        core.stepped_visit = visit
                        next_event = core.step(now)
                        bits = core.block_bits
                        if bits:
                            # The block's later issue cycles are visits
                            # at which the core counts as stepped.
                            core.block_bits = 0
                            virtual |= bits
                            core.stepped_visit = visit + bits.bit_count()
                        if core.done:
                            finished = True
                            continue
                    if next_event < next_now:
                        next_now = next_event
                if finished:
                    active = [c for c in active if not c.done]
                    if not active:
                        self.now = now + 1
                        break
                if deadline is not None and next_now > deadline:
                    next_now = deadline
                skipped = next_now - now - 1
                if virtual:
                    if skipped > 0:
                        passed = virtual & ((2 << skipped) - 2)
                        if passed:
                            passed = passed.bit_count()
                            visit += passed
                            skipped -= passed
                    virtual >>= next_now - now
                if skipped > 0:
                    # Fast-forward across globally idle cycles; the
                    # skipped cycles are stall cycles for every core
                    # that is still active (cores that finished this
                    # cycle accrue neither stats nor ledger stalls).
                    for core in active:
                        core.stats.cycles += skipped
                        core.stats.stall_cycles += skipped
                    ff_stall_events += skipped * len(active)
                self.now = next_now if next_now > now + 1 else now + 1
        finally:
            for core in active:
                idle = visit - core.stepped_visit
                if idle:
                    core.charge_stalls(idle)
            for core in cores:
                core.issue_limit = 0
            if ff_stall_events:
                self.ledger.record("core.stall_cycle", ff_stall_events)
            for core in cores:
                core.flush_events()
        if checker is not None:
            checker.check_engine(self)

        return RunResult(
            cycles=self.now - start_cycle,
            instructions=self.total_instructions - start_instrs,
            completed=all(c.done for c in cores),
        )
