"""The core issue pipeline: fine-grained MT timing + energy events.

Timing rules (all from the paper / OpenSPARC T1 documentation):

* one instruction issues per cycle, round-robin among *ready* threads;
* a thread that issued a ``latency``-cycle instruction is not ready
  again for ``latency`` cycles (single-issue, in-order, blocking);
* loads speculate L1 hit: a hit costs the 3-cycle load-use latency; a
  miss triggers a roll-back (energy event) and stalls the thread for
  the memory system's computed latency;
* stores issue speculatively into the 8-entry store buffer; a full
  buffer forces a roll-back and replay (``stx (F)``);
* the store buffer drains serially at the 10-cycle ``stx`` latency and
  performs the real (coherent) L1.5 write at drain time.

Hot-loop design: the engine steps a core only at the cycles where an
event of it is due (see :mod:`repro.core.multicore`), and each step
avoids per-event string hashing and per-instruction lookups. An issue
is a table dispatch: the thread holds its stream's precomputed
``OpcodeInfo`` and semantics-handler tables, and calls
``handlers[pc]`` into the one
:class:`~repro.core.semantics.ExecOutcome` the core reuses. Core-side
energy events accumulate in interned integer counters (per instruction
class) and are folded into the shared :class:`EventLedger` once per
engine run via :meth:`Core.flush_events`.

Block issue: when the selected thread sits at a register-only run
(:mod:`repro.core.blocks`), one step issues a *block*: every issue the
per-instruction path would make from this cycle on, until the selected
thread's next instruction lies outside its run, as compiled code.

* A block holds no load, store or ``cas`` and never a program's last
  instruction, so memory ops keep the per-instruction path and no
  thread finishes inside a block.
* Every issue cycle of a block lies below :attr:`Core.issue_limit`
  (the engine keeps it at the earliest of its run deadline,
  ``max_cycles`` bound and next invariant sweep) and below the core's
  next store-buffer drain, so the check schedule and the drain order
  are unchanged.
* A thread that issues alone (one thread per core, a finished partner,
  or a partner not at a run, whose ready cycle then ends the block)
  issues at its run's static offsets. When both threads stand at
  runs, the block is their round-robin schedule, which
  :func:`~repro.core.spin.replay` derives from static latencies (see
  :func:`~repro.core.blocks.schedule`). Either way the core's next
  event falls after the block's last issue.
* A block accounts exactly what per-instruction steps would have:
  cycles, issues, stall cycles between issues (through the engine),
  thread switches, the round-robin pointer, ``ready_at``, per-thread
  instruction and branch counts, and per-class counts and activity
  weights; :meth:`Core.add_issues` adds the issues, as it does for
  un-parking. A block reports its issue cycles after the first in
  :attr:`Core.block_bits`, for the engine to count as visits.
* Cores with execution drafting and two threads keep the
  per-instruction path: draft status depends on both threads' pcs at
  every issue.

Parking: at a loop head (the target of a taken backward branch, or
the instruction after a failing ``cas``) a thread whose registers are
those it had at the same head one iteration before tests its loop
(:func:`~repro.core.spin.loop_at`). A loop whose registers change
every iteration, such as a counted loop, pays one register-list
compare and copy per iteration and is never tested; one whose
registers repeat but that fails the test (a floating-point op, a
store of a new value) is tested again at each head. When every
unfinished thread of a core runs a fixed-point loop (and it
is not drafting with two threads), the step sets
:attr:`Core.park_ready` and the engine may *park* the core
(:mod:`repro.core.multicore`): :attr:`Core.parked` then holds its
:class:`~repro.core.spin.Schedule` and the engine stops stepping it.
:meth:`Core.unpark` accounts every parked issue and drain before a
cycle in bulk, exactly as per-instruction steps would have, and
restores each thread's registers, pc and ready time and the store
buffer.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from repro.arch.params import PitonConfig
from repro.cache.system import CoherentMemorySystem
from repro.core.blocks import schedule
from repro.core.semantics import ExecOutcome
from repro.core.spin import FIRST_WAIT, Orbits, loop_at
from repro.core.storebuffer import StoreBuffer, StoreEntry
from repro.core.thread import ThreadContext
from repro.isa.instructions import INSTR_EVENT_NAMES, NUM_INSTR_CLASSES
from repro.isa.program import Program
from repro.util.events import EventLedger

#: Cycles to refill the pipeline after a speculative-issue roll-back
#: (the 6-stage depth of the T1 pipeline).
ROLLBACK_PENALTY = 6

#: Sentinel "never" cycle for cores with no schedulable event.
_FAR_FUTURE = 1_000_000_000


@dataclass
class CoreStats:
    """Per-core aggregate counters."""

    cycles: int = 0
    issued: int = 0
    stall_cycles: int = 0
    rollbacks: int = 0
    store_buffer_rollbacks: int = 0
    load_miss_rollbacks: int = 0

    @property
    def ipc(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.issued / self.cycles


class Core:
    """One tile's core: threads, store buffer, and the issue loop."""

    def __init__(
        self,
        tile_id: int,
        config: PitonConfig,
        memsys: CoherentMemorySystem,
        memory,
        ledger: EventLedger,
        programs: list[Program],
        execution_drafting: bool = False,
    ):
        if not 1 <= len(programs) <= config.threads_per_core:
            raise ValueError(
                f"core takes 1..{config.threads_per_core} thread programs"
            )
        self.tile_id = tile_id
        self.config = config
        self.memsys = memsys
        self.memory = memory
        self.ledger = ledger
        self.execution_drafting = execution_drafting
        self.threads = [
            ThreadContext(thread_id=i, program=p)
            for i, p in enumerate(programs)
        ]
        self.store_buffer = StoreBuffer(
            config.store_buffer_entries, memsys.latency.store_buffer
        )
        self.stats = CoreStats()
        self._rr_next = 0
        self._last_issued_thread: int | None = None
        # Incrementally-maintained completion state: ``done`` flips True
        # once every thread ran off its program end and the store buffer
        # drained. The engine reads the flag instead of re-deriving it.
        self._undone = sum(1 for t in self.threads if not t.done)
        self.done = self._undone == 0 and self.store_buffer.empty
        #: Cycle of the next event, as last returned by :meth:`step`;
        #: a fresh core is due at once.
        self.next_event = 0
        #: The engine's visit index of this core's last step.
        self.stepped_visit = 0
        #: Issue offsets after the first of the block the last step
        #: issued, as a bit mask (0 when it issued no block); the
        #: engine consumes and clears it.
        self.block_bits = 0
        #: Issues of a step stay below this cycle. The engine sets it
        #: for the length of a run; 0 outside one, where every step
        #: issues at most one instruction.
        self.issue_limit = 0
        self._blocks = not (execution_drafting and len(self.threads) > 1)
        #: Position of the core in its engine's stepping order.
        self.order = tile_id
        #: Set by a step that left every unfinished thread at a
        #: fixed-point loop; the engine consumes and clears it.
        self.park_ready = False
        #: The word of a failing ``cas`` the last step made, when that
        #: was the word's only touch; the engine consumes and clears it.
        self.settled = None
        #: The issue schedule while the engine has the core parked.
        self.parked = None
        #: No park attempt replays before this cycle, and the wait
        #: after the next miss (see :func:`~repro.core.spin.schedule`).
        self.park_retry = None
        self.park_wait = FIRST_WAIT
        #: The loops and orbits found, shared by an engine's cores.
        self.orbits = Orbits()
        # One outcome reused for every issued instruction.
        self._outcome = ExecOutcome()
        self._reset_event_counters()

    def _reset_event_counters(self) -> None:
        # Interned event accumulators, flushed by flush_events(). All
        # of these carry the ledger's default activity except the
        # per-class instruction counters, which sum real activities.
        self._issues = 0  # core.active_cycle + core.fetch
        self._thread_switches = 0
        self._stall_cycle_events = 0
        self._rollback_events = 0
        self._replay_bubbles = 0
        self._class_counts = [0.0] * NUM_INSTR_CLASSES
        self._class_weights = [0.0] * NUM_INSTR_CLASSES

    # ----------------------------------------------------------------- events
    def flush_events(self) -> None:
        """Fold the interned event counters into the shared ledger.

        Called once per engine run — the point of accumulating locally
        is that the hot loop never hashes event-name strings. Exact
        with respect to per-event recording: all accumulated counts and
        activity weights are small dyadic rationals, so float addition
        here is associative (no rounding).
        """
        ledger = self.ledger
        n = self._issues
        if n:
            ledger.add_bulk("core.active_cycle", n, n * 0.5)
            ledger.add_bulk("core.fetch", n, n * 0.5)
        n = self._thread_switches
        if n:
            ledger.add_bulk("core.thread_switch", n, n * 0.5)
        n = self._stall_cycle_events
        if n:
            ledger.add_bulk("core.stall_cycle", n, n * 0.5)
        n = self._rollback_events
        if n:
            ledger.add_bulk("core.rollback", n, n * 0.5)
        n = self._replay_bubbles
        if n:
            ledger.add_bulk("core.replay_bubble", n, n * 0.5)
        counts = self._class_counts
        weights = self._class_weights
        for i in range(NUM_INSTR_CLASSES):
            if counts[i]:
                ledger.add_bulk(INSTR_EVENT_NAMES[i], counts[i], weights[i])
        self._reset_event_counters()

    # ------------------------------------------------------------------- step
    def charge_stalls(self, cycles: int) -> None:
        """Account ``cycles`` visited cycles the engine did not step
        this core in: exactly what stepping it would have recorded.
        With a thread unfinished the core was not due, so each is a
        stall cycle. A draining core (every thread finished, stores
        still buffered) sits out only the issue cycles of other cores'
        blocks, which are not stalls for it."""
        stats = self.stats
        stats.cycles += cycles
        if self._undone:
            stats.stall_cycles += cycles
            self._stall_cycle_events += cycles

    def step(self, now: int) -> int:
        """Advance one cycle: drain stores, select a thread, issue.

        Issues one instruction, or a block whose issue cycles all lie
        below :attr:`issue_limit`. Returns the core's next-event cycle,
        the earliest cycle after the last issue at which it can make
        progress, and keeps it as :attr:`next_event`. The engine steps
        the core again only once that cycle is due, and fast-forwards
        globally idle gaps to the earliest one without a second scan
        over threads.
        """
        stats = self.stats
        stats.cycles += 1
        store_buffer = self.store_buffer
        drain_at = store_buffer._head_done_at
        if drain_at is not None and now >= drain_at:
            self._drain_stores(now)

        # Round-robin selection among ready threads.
        threads = self.threads
        n_threads = len(threads)
        thread = None
        if n_threads == 1:
            candidate = threads[0]
            if not candidate.done and candidate.ready_at <= now:
                thread = candidate
        else:
            idx = self._rr_next
            for _ in range(n_threads):
                candidate = threads[idx]
                idx += 1
                if idx == n_threads:
                    idx = 0
                if not candidate.done and candidate.ready_at <= now:
                    thread = candidate
                    self._rr_next = idx
                    break

        if thread is None:
            if self._undone:
                stats.stall_cycles += 1
                self._stall_cycle_events += 1
            elif not self.done and store_buffer.empty:
                self.done = True
        else:
            pc = thread.pc
            entry = thread.runs[pc]
            if entry is not None and self._blocks:
                best = self._issue_block(thread, entry, now)
                if best:
                    return best
            info = thread.infos[pc]
            if info.is_store and store_buffer.full:
                # Speculative store issue: detect a full buffer *before*
                # the architectural write, roll back and replay later.
                self._rollback(thread, now, kind="store_buffer")
            else:
                instr = thread.instructions[pc]
                outcome = self._outcome
                thread.handlers[pc](instr, thread, self.memory, outcome)
                stats.issued += 1
                thread_stats = thread.stats
                thread_stats.instructions += 1
                self._issues += 1
                last = self._last_issued_thread
                if last is not None and last != thread.thread_id:
                    self._thread_switches += 1
                self._last_issued_thread = thread.thread_id
                drafted = self.execution_drafting and self._draftable(instr)
                n = 0.5 if drafted else 1.0
                class_index = info.class_index
                self._class_counts[class_index] += n
                self._class_weights[class_index] += n * outcome.activity

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
                    # RAW through the store buffer: a younger buffered
                    # store to the same word forwards its value.
                    forwarded = store_buffer.forward_value(outcome.mem_addr)
                    if forwarded is not None:
                        thread.write_int(instr.rd, forwarded)
                    mem = self.memsys.load(self.tile_id, outcome.mem_addr, now)
                    if mem.level != "l1":
                        stats.load_miss_rollbacks += 1
                        stats.rollbacks += 1
                        thread_stats.rollbacks += 1
                        self._rollback_events += 1
                    thread.ready_at = now + mem.latency
                elif info.is_atomic:
                    addr = outcome.mem_addr
                    disturbed = self.memsys.disturbed
                    fresh = addr not in disturbed
                    mem = self.memsys.atomic(self.tile_id, addr, now)
                    thread.ready_at = now + mem.latency
                    if outcome.swapped:
                        thread.loop = None
                    else:
                        if fresh and addr in disturbed:
                            # A failing cas leaves its line quiet and
                            # its word as it was: when it is the only
                            # touch of the word, its spinners need no
                            # re-check (a holder of the line still does).
                            self.settled = addr
                        if self._blocks:
                            self._loop_head(thread, True)
                elif info.is_branch:
                    thread_stats.branches += 1
                    if outcome.branch_taken:
                        thread_stats.branches_taken += 1
                        # A loop iteration: a branch back to its own
                        # or an earlier pc.
                        if instr.target <= pc:
                            thread_stats.iterations += 1
                            if self._blocks:
                                self._loop_head(thread, False)
                    thread.ready_at = now + info.latency
                else:
                    thread.ready_at = now + info.latency

                if thread.done:
                    self._undone -= 1
                    if self._undone == 0 and store_buffer.empty:
                        self.done = True

        # Next event: the earliest ready unfinished thread or the
        # pending store-buffer drain.
        best = store_buffer._head_done_at
        if n_threads == 1:
            only = threads[0]
            if not only.done and (best is None or only.ready_at < best):
                best = only.ready_at
        else:
            for t in threads:
                if not t.done and (best is None or t.ready_at < best):
                    best = t.ready_at
        if best is None:
            best = now + _FAR_FUTURE  # effectively never
        elif best <= now:
            best = now + 1
        self.next_event = best
        return best

    # ---------------------------------------------------------------- parking
    def _loop_head(self, thread: ThreadContext, eager: bool) -> None:
        """``thread`` stands at a loop head (``eager``: after a failing
        ``cas``): test its loop, and set :attr:`park_ready` when every
        unfinished thread runs one."""
        loop = thread.loop
        if loop is not None and loop.position(thread) is None:
            loop = thread.loop = None
        if loop is None:
            regs = thread.regs
            if not eager and (thread.mark_pc != thread.pc
                              or thread.mark != regs):
                thread.mark = regs.copy()
                thread.mark_pc = thread.pc
                return
            loop = thread.loop = loop_at(self, thread)
            if loop is None:
                return
            thread.loop_mark = thread.stats.instructions
        stores = False
        for other in self.threads:
            if other.loop is None and not other.done:
                return
            stores = stores or bool(other.loop and other.loop.stores)
        # A buffered store no loop made drains first.
        self.park_ready = stores or self.store_buffer.empty

    def unpark(self, now: int) -> int:
        """Leave the parked state at cycle ``now``: account every issue
        and drain of :attr:`parked` before ``now`` as per-instruction
        steps would have, and return the number of issues (stepped
        visits for the engine). :attr:`next_event` becomes the next
        issue or drain at or after ``now``.
        """
        schedule = self.parked
        self.parked = None
        total = schedule.account(self, now)
        self.next_event = schedule.next_visit(now)
        return total

    # ----------------------------------------------------------------- blocks
    def _issue_block(self, thread: ThreadContext, entry, now: int) -> int:
        """Issue the block starting with ``thread``'s run ``entry`` at
        ``now``, and return the next-event cycle: the earliest ready
        unfinished thread or pending drain, but after the block's last
        issue. Returns 0 when the block would hold fewer than two
        issues (the caller then issues one instruction)."""
        run, index = entry
        limit = self.issue_limit
        drain = self.store_buffer._head_done_at
        if drain is not None and drain < limit:
            limit = drain
        span = limit - now
        if span < 2:  # a block's second issue would reach the limit
            return 0
        threads = self.threads
        other = pair = None
        if len(threads) == 2:
            other = threads[1] if thread is threads[0] else threads[0]
            if not other.done:
                pair = other.runs[other.pc]
                if pair is None:
                    # It issues nothing in the block, which ends once
                    # it is ready (the pointer favours it).
                    ready = other.ready_at - now
                    if ready <= 0:
                        return 0
                    if ready < span:
                        span = ready
        if pair is not None:
            # Both threads at runs: their round-robin schedule.
            run_b, index_b = pair
            (k, k_b, ready_a, ready_b, last_b, switches, bits,
             end) = schedule(run, index, run_b, index_b,
                             other.ready_at - now, span)
            if k + k_b < 2:
                return 0
            self._execute(thread, run, index, k)
            thread.ready_at = now + ready_a
            if k_b:
                self._execute(other, run_b, index_b, k_b)
                other.ready_at = now + ready_b
                k += k_b
            final = other if last_b else thread
        else:
            cyc = run.cyc
            base = cyc[index]
            n = run.n
            if cyc[n - 1] - base < span:
                stop = n
            else:
                stop = bisect_left(cyc, base + span, index + 1, n)
            k = stop - index
            if k < 2:
                return 0
            self._execute(thread, run, index, k)
            thread.ready_at = now + cyc[stop] - base
            end = cyc[stop - 1] - base
            bits = (run.bits >> base) & ((2 << end) - 2)
            final, switches = thread, 0
        # Issues at now..now + end; bits holds those after the first.
        self.stats.cycles += k - 1
        last = self._last_issued_thread
        if last is not None and last != thread.thread_id:
            switches += 1
        self.add_issues(k, switches, final.thread_id)
        self.block_bits = bits
        best = self.store_buffer._head_done_at
        for t in threads:
            if not t.done and (best is None or t.ready_at < best):
                best = t.ready_at
        if best <= now + end:
            best = now + end + 1
        self.next_event = best
        return best

    def add_issues(self, k: int, switches: int, last: int) -> None:
        """Add ``k`` issues with ``switches`` thread switches among them,
        the last by thread ``last``, to the core's statistics, switch
        count and round-robin state (the caller counts the cycles)."""
        self.stats.issued += k
        self._issues += k
        self._thread_switches += switches
        self._last_issued_thread = last
        n = len(self.threads)
        if n > 1:
            self._rr_next = last + 1 if last + 1 < n else 0

    def _execute(self, thread: ThreadContext, run, index: int,
                 k: int) -> None:
        """Run ``k`` instructions of ``thread``'s run from ``index`` and
        account them to the thread."""
        stop = index + k
        if index == 0 and stop == run.n:
            taken = run.full(thread.regs, thread.fregs, self._class_counts,
                             self._class_weights)
        else:
            taken = run.part(thread.regs, thread.fregs, self._class_counts,
                             self._class_weights, index, stop)
        thread_stats = thread.stats
        thread_stats.instructions += k
        pc = thread.pc + k
        if stop == run.n and run.branch:
            thread_stats.branches += 1
            if taken:
                thread_stats.branches_taken += 1
                target = thread.instructions[pc - 1].target
                if target <= pc - 1:
                    thread_stats.iterations += 1
                    thread.pc = target
                    self._loop_head(thread, False)
                    return
                pc = target
        thread.pc = pc

    # ------------------------------------------------------------------ parts
    def _drain_stores(self, now: int) -> None:
        entry = self.store_buffer.drain_ready(now)
        if entry is None:
            return
        # The store becomes architecturally visible at drain time.
        self.memory.write(entry.addr, entry.value)
        outcome = self.memsys.store(self.tile_id, entry.addr, now)
        extra = outcome.latency - self.memsys.latency.store_buffer
        if extra > 0:
            # Memory backpressure delays the next drain.
            self.store_buffer.delay_head(extra)

    def _rollback(self, thread: ThreadContext, now: int, kind: str) -> None:
        """Speculative-issue failure: replay after the pipeline refills."""
        self.stats.rollbacks += 1
        self.stats.store_buffer_rollbacks += kind == "store_buffer"
        thread.stats.rollbacks += 1
        self._rollback_events += 1
        # The replayed instructions burn fetch/decode energy again.
        self._replay_bubbles += ROLLBACK_PENALTY
        thread.ready_at = now + ROLLBACK_PENALTY

    def _draftable(self, instr) -> bool:
        """Execution Drafting: when both threads sit at the same PC of
        the same program, the second execution drafts behind the first
        and the front-end energy is shared. A simple, honest stand-in
        for McKeown et al.'s MICRO-47 mechanism."""
        if len(self.threads) < 2:
            return False
        a, b = self.threads[0], self.threads[1]
        return a.program is b.program and a.pc == b.pc
