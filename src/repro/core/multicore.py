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

Parking. A core whose unfinished threads all run fixed-point loops
(:mod:`repro.core.spin`), not drafting with two threads, *parks* after
a step that left it at a loop head when its memory repeats
(:meth:`~repro.core.spin.Loop.holds`) and its schedule state at its
next visit lies on a known orbit of its loops' timing. The engine then
stops stepping it: its issue and drain cycles, which follow a fixed
:class:`~repro.core.spin.Schedule`, count as virtual visits like a
block's, and its accesses change nothing but the ledger, statistics
and LRU order, which :meth:`Core.unpark` accounts in bulk. A parked
core watches the home L2 set of every line and ``cas`` word its loops
touch (:meth:`~repro.cache.system.CoherentMemorySystem.watch`): every
foreign access to a private line and every change to a quiet one goes
through a lookup, fill or recall there. After a real step that
disturbed a watched set, the engine re-checks at once:

* A private line that no longer repeats (evicted, invalidated or
  downgraded) wakes the core at its next access to the line, placed
  at the disturbance in engine order (cycle first, then core order):
  it un-parks there and steps that access.
* A ``cas`` word whose line is no longer quiet with the spinners'
  value turns *pending*, and the parked core with the next ``cas`` on
  it in engine order is woken. That ``cas`` stays virtual if the line
  is quiet with the value again by then, which clears the mark;
  otherwise the core un-parks and the ``cas`` steps, and the check
  after that step decides again. So after a lock release the next
  spinner wins the lock for real, its ``cas`` leaves the line quiet
  with the value the others read, and they stay parked. A failing
  ``cas`` that is its word's only touch in a step needs no re-check of
  the word; a parked core that loads or drains into the word's line is
  still checked.

Every parked core un-parks, accounted up to the cycle, before the run
deadline (warm-up and window cuts), the ``max_cycles`` bound and every
invariant sweep: it is due at its first issue or drain at or after the
earliest of them. A run also un-parks every core when it ends.

Limits: a parked core keeps its place in the visit loop, where a core
that is not due costs one comparison per visit; a core steps its
transient until its state joins an orbit; and an orbit is found only
if the interleave repeats within :data:`~repro.core.spin.MAX_EVENTS`
events without filling the store buffer. Parking has no switch: its
results equal per-instruction stepping's bit for bit
(``tests/property/test_prop_engine.py``), and a workload that never
repeats only pays a register compare per loop iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.params import PitonConfig
from repro.cache.system import CoherentMemorySystem
from repro.core.pipeline import Core
from repro.core.spin import Orbits, schedule
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


class _Parking:
    """A run's parked cores, the addresses they watch and their issue
    and drain cycles as virtual visits."""

    #: Cycles of parked visit masks built ahead at a time.
    WINDOW = 2048

    def __init__(self, memsys: CoherentMemorySystem, memory: SharedMemory):
        self.memsys = memsys
        self.memory = memory
        #: parked core -> its visit cycles in [origin, end) (bit c - origin)
        self.masks: dict[Core, int] = {}
        self.union = 0
        self.origin = 0
        self.end = 0
        #: cas word -> parked cores whose cas reads it, and the value
        #: they all read there
        self.spinners: dict[int, list[Core]] = {}
        self.values: dict[int, int] = {}
        #: private line -> parked cores that load it or drain into it
        self.holders: dict[int, list[Core]] = {}
        #: cas words last seen not quiet with their spinners' value
        self.pending: set[int] = set()

    def _settled(self, addr: int) -> bool:
        """Whether ``addr``'s line is quiet with its spinners' value."""
        return (self.memory.read(addr) == self.values[addr]
                and self.memsys.quiet(addr))

    def _join(self, table: dict, addr: int, core: Core) -> bool:
        """Add ``core`` to ``table[addr]``; whether it is the first."""
        cores = table.get(addr)
        if cores is not None:
            cores.append(core)
            return False
        if addr not in self.spinners and addr not in self.holders:
            self.memsys.watch(addr, True)
        table[addr] = [core]
        return True

    def _leave(self, table: dict, addr: int, core: Core) -> bool:
        """Remove ``core`` from ``table[addr]``; whether it was the
        last."""
        cores = table[addr]
        cores.remove(core)
        if cores:
            return False
        del table[addr]
        if addr not in self.spinners and addr not in self.holders:
            self.memsys.watch(addr, False)
        return True

    def park(self, core: Core, now: int, limit: int) -> bool:
        """Park ``core`` after its step at ``now`` if its loops'
        memory repeats, every word it spins on holds the value every
        other spinner on it read, and its state lies on an orbit."""
        parked = schedule(core)
        if parked is None:
            return False
        for addr, value in parked.words.items():
            if self.values.get(addr, value) != value:
                return False
        core.parked = parked
        for addr, value in parked.words.items():
            if self._join(self.spinners, addr, core):
                self.values[addr] = value
            else:
                self.pending.discard(addr)
        for line in parked.lines:
            self._join(self.holders, line, core)
        if not self.masks:
            self.origin = self.end = now + 1
        mask = parked.bits(self.origin, self.end)
        self.masks[core] = mask
        self.union |= mask
        core.next_event = parked.next_visit(limit)
        return True

    def unpark(self, core: Core, now: int) -> int:
        """Un-park ``core`` at ``now`` (its position in engine order);
        returns the earliest cycle after ``now`` a spinner it leaves
        had to be woken at, or ``1 << 62``."""
        parked = core.parked
        core.stepped_visit += core.unpark(now)
        del self.masks[core]
        union = 0
        for mask in self.masks.values():
            union |= mask
        self.union = union
        woken = 1 << 62
        for addr in parked.words:
            if self._leave(self.spinners, addr, core):
                del self.values[addr]
                self.pending.discard(addr)
            elif addr in self.pending:
                at = self._wake(addr, now, core.order)
                if now < at < woken:
                    woken = at
        for line in parked.lines:
            self._leave(self.holders, line, core)
        return woken

    def unpark_all(self, now: int) -> None:
        for core in list(self.masks):
            core.stepped_visit += core.unpark(now)
        for addr in self.spinners.keys() | self.holders.keys():
            self.memsys.watch(addr, False)
        self.masks.clear()
        self.spinners.clear()
        self.holders.clear()
        self.values.clear()
        self.pending.clear()
        self.union = 0

    def disturb(self, now: int, order: int, settled: int | None) -> int:
        """After the step of the core at ``order`` at ``now``: a holder
        of a disturbed line that no longer repeats is woken at its next
        access to it; a disturbed word whose line is no longer quiet
        with its spinners' value turns pending, and the spinner with
        the next ``cas`` on it is woken. The word of a failing ``cas``
        that was its only touch in the step (``settled``) is quiet with
        its value, so its spinners are not re-checked. Returns the
        earliest wake cycle after ``now`` (a core woken at ``now`` comes
        later in this visit)."""
        disturbed = self.memsys.disturbed
        woken = 1 << 62
        for addr in disturbed:
            if addr in self.spinners and addr != settled:
                if self._settled(addr):
                    self.pending.discard(addr)
                else:
                    self.pending.add(addr)
                    at = self._wake(addr, now, order)
                    if now < at < woken:
                        woken = at
            for core in self.holders.get(addr, ()):
                if not self._repeats(core, addr):
                    parked = core.parked
                    at = parked.next_access(
                        addr, now if core.order > order else now + 1
                    )
                    if at < parked.broken:
                        parked.broken = at
                    if at < core.next_event:
                        core.next_event = at
                    if now < at < woken:
                        woken = at
        disturbed.clear()
        return woken

    def _repeats(self, core: Core, line: int) -> bool:
        load, drain = core.parked.lines[line]
        hit_repeats = self.memsys.hit_repeats
        return ((not load or hit_repeats(core.tile_id, line, False))
                and (not drain or hit_repeats(core.tile_id, line, True)))

    def _wake(self, addr: int, now: int, order: int) -> int:
        best = None
        for core in self.spinners[addr]:
            at = core.parked.next_access(
                addr, now if core.order > order else now + 1
            )
            if best is None or (at, core.order) < best[:2]:
                best = (at, core.order, core)
        at, _, core = best
        if at < core.next_event:
            core.next_event = at
        return at

    def check(self, core: Core, now: int, limit: int) -> bool:
        """At a visit of parked ``core``: whether it stays parked. It
        leaves at its next access to a line that stopped repeating,
        and a ``cas`` at ``now`` on a pending word stays virtual only
        if the line is quiet again with the spinners' value."""
        parked = core.parked
        if now >= parked.broken:
            return False
        if self.pending:
            word = parked.cas_word(now)
            if word is not None and word in self.pending:
                if not self._settled(word):
                    return False
                self.pending.discard(word)
        due = min(parked.next_visit(limit), parked.broken)
        for word in parked.words:
            if word in self.pending:
                due = min(due, parked.next_access(word, now + 1))
        core.next_event = due
        return True

    def horizon(self, now: int) -> int:
        """A parked visit cycle at least :attr:`WINDOW` cycles after
        ``now``."""
        core = next(iter(self.masks))
        return core.parked.next_visit(now + self.WINDOW)

    def window(self, now: int, until: int) -> int:
        """Parked visit cycles after ``now`` as bits relative to
        ``now``, valid up to cycle ``until``."""
        if until >= self.end:
            self.origin = now
            self.end = until + self.WINDOW
            union = 0
            for core in self.masks:
                mask = core.parked.bits(now, self.end)
                self.masks[core] = mask
                union |= mask
            self.union = union
        return self.union >> (now - self.origin)


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
        #: The loops and orbits the cores found (see
        #: :mod:`repro.core.spin`).
        self.orbits = Orbits()

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
        core.order = len(self.cores)
        core.orbits = self.orbits
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
        # Parked cores stay in ``active`` with their next event at a
        # wake: a pending ``cas``, a line's next access or their first
        # visit at ``limit``.
        parking = _Parking(self.memsys, self.memory)
        parked = parking.masks
        disturbed = self.memsys.disturbed
        disturbed.clear()

        try:
            while active:
                now = self.now
                if parked and now >= limit:
                    parking.unpark_all(now)
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
                woken = far_future
                finished = False
                for core in active:
                    next_event = core.next_event
                    if next_event <= now or not core._undone:
                        if core.parked is not None:
                            if parking.check(core, now, limit):
                                next_event = core.next_event
                                if next_event < next_now:
                                    next_now = next_event
                                continue
                            wake = parking.unpark(core, now)
                            if wake < woken:
                                woken = wake
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
                        if disturbed:
                            wake = parking.disturb(now, core.order,
                                                   core.settled)
                            core.settled = None
                            if wake < woken:
                                woken = wake
                        if core.park_ready:
                            core.park_ready = False
                            if parking.park(core, now, limit):
                                next_event = core.next_event
                        if core.done:
                            finished = True
                            continue
                    if next_event < next_now:
                        next_now = next_event
                if woken < next_now:
                    next_now = woken
                if finished:
                    active = [c for c in active if not c.done]
                    if not active:
                        self.now = now + 1
                        break
                if deadline is not None and next_now > deadline:
                    next_now = deadline
                if parked and next_now - now > parking.WINDOW:
                    # Bound the masks: stop at a parked issue cycle, a
                    # visit either way.
                    next_now = min(next_now, parking.horizon(now))
                skipped = next_now - now - 1
                if skipped > 0 and (virtual or parked):
                    span = virtual
                    if parked:
                        span |= parking.window(now, next_now)
                    passed = span & ((2 << skipped) - 2)
                    if passed:
                        passed = passed.bit_count()
                        visit += passed
                        skipped -= passed
                if virtual:
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
            if parked:
                parking.unpark_all(self.now)
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
