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
event of it is due (see :mod:`repro.core.multicore`), so there are
about as many steps as issued instructions — hundreds of thousands per
experiment — and each one avoids per-event string hashing and
per-instruction lookups. An issue is a table dispatch: the thread
holds its stream's precomputed ``OpcodeInfo`` and semantics-handler
tables, and calls ``handlers[pc]`` into the one
:class:`~repro.core.semantics.ExecOutcome` the core reuses. Core-side
energy events accumulate in interned integer counters (per instruction
class) and are folded into the shared :class:`EventLedger` once per
engine run via :meth:`Core.flush_events`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.params import PitonConfig
from repro.cache.system import CoherentMemorySystem
from repro.core.semantics import ExecOutcome
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
        this core in because its next event was not yet due: exactly
        what stepping it would have recorded, one stall cycle each."""
        stats = self.stats
        stats.cycles += cycles
        stats.stall_cycles += cycles
        self._stall_cycle_events += cycles

    def step(self, now: int) -> int:
        """Advance one cycle: drain stores, select a thread, issue.

        Returns the core's next-event cycle, the earliest future cycle
        at which it can make progress, and keeps it as
        :attr:`next_event`. The engine steps the core again only once
        that cycle is due, and fast-forwards globally idle gaps to the
        earliest one without a second scan over threads.
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
                    mem = self.memsys.atomic(
                        self.tile_id, outcome.mem_addr, now
                    )
                    thread.ready_at = now + mem.latency
                elif info.is_branch:
                    thread_stats.branches += 1
                    if outcome.branch_taken:
                        thread_stats.branches_taken += 1
                        # A loop iteration: a branch back to its own
                        # or an earlier pc.
                        if instr.target <= pc:
                            thread_stats.iterations += 1
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
