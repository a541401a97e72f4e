"""Spin-lock parking: loop analysis and the parked issue schedule.

A thread *spins* when its last ``cas`` failed (the word differed from
its compare register) and the path from that ``cas`` back to the same
``cas`` is integer-register-only and keeps every register at the
value the failing ``cas`` left, after each of its instructions. While
the word stays unchanged, every later iteration then repeats exactly:
the same pcs, latencies, activities and branch outcomes; and a thread
stopped anywhere on its loop, at the ``cas`` included, holds the
registers it held right after that ``cas``, so leaving the loop only
sets its pc and ready time. :func:`spin_loop` decides this at the
failing ``cas`` from the program and a dry run of the loop on a copy
of the registers; the thread keeps its :class:`Loop` while it walks
the path, until its next ``cas``.

Limits: the path holds at most :data:`MAX_LOOP` instructions and no
floating-point op; a path whose registers change on the way round
(say ``set tid, %r8`` before the ``cas`` that reads the holder's id
into ``%r8``) does not spin and steps; the ``cas``'s latency is the
quiet line's (no fill, no holder to invalidate); and a core with two
threads parks only while both spin and their interleave repeats within
:data:`MAX_EVENTS` issues.

A core whose unfinished threads all spin, with an empty store buffer,
*parks* (see :mod:`repro.core.multicore`): its issues follow a fixed
:class:`Schedule`, the round-robin interleave of its threads' loops,
which turns periodic after a short transient. The engine stops
stepping a parked core; when it un-parks, :meth:`Schedule.tally`
gives what per-instruction stepping would have accounted for every
issue before the un-park cycle, in bulk: whole periods are one
multiplication, because every count and activity weight is dyadic and
the sums are exact.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.core.semantics import ExecOutcome

#: Longest register-only path from a ``cas`` back to itself that
#: :func:`spin_loop` follows.
MAX_LOOP = 64

#: Issues simulated while looking for the schedule's period; a core
#: whose interleave has not repeated by then is not parked.
MAX_EVENTS = 512



class _Scratch:
    """The part of a thread the integer register-only handlers touch."""

    __slots__ = ("regs", "pc", "end", "done")

    def __init__(self, regs, pc, end):
        self.regs = regs
        self.pc = pc
        self.end = end
        self.done = False


class Loop:
    """One thread's spin loop. Position 0 is the ``cas``; positions
    1.. are the register-only path back to it, in issue order.

    ``pcs``/``lats``/``classes``/``acts`` give each position's pc,
    issue latency (the ``cas``'s is its memory latency on the quiet
    line), instruction class and activity; ``flags`` its branch
    counts ``(branches, taken, iterations)``. ``addr`` is the word
    the ``cas`` reads and ``value`` what it reads there; ``regs`` the
    registers the failing ``cas`` left, which every position keeps,
    and ``mark`` the thread's instruction count right after it.
    """

    __slots__ = ("addr", "value", "regs", "pcs", "lats", "classes",
                 "acts", "flags", "n", "mark")

    def __init__(self, addr, value, regs, positions, mark):
        self.addr = addr
        self.value = value
        self.regs = regs
        (self.pcs, self.lats, self.classes, self.acts,
         self.flags) = zip(*positions)
        self.n = len(positions)
        self.mark = mark

    def repeats(self, thread, cas_pc: int, addr: int, memory) -> bool:
        """Whether ``thread``'s ``cas`` at ``cas_pc``, which just failed
        on ``addr``, left it where this loop was decided: then the
        loop holds again (and is re-marked). The thread's tile and
        ``addr`` fix the ``cas``'s quiet-line latency."""
        if (self.pcs[0] != cas_pc or self.addr != addr
                or self.regs != thread.regs
                or memory.read(addr) != self.value):
            return False
        self.mark = thread.stats.instructions
        return True


def spin_loop(thread, cas_pc: int, addr: int, latency: int,
              memory) -> Loop | None:
    """The loop of ``thread``, whose ``cas`` at ``cas_pc`` just failed
    on ``addr``, or ``None`` when the thread does not spin. ``latency``
    is the ``cas``'s memory latency on a quiet line."""
    instructions = thread.instructions
    infos = thread.infos
    handlers = thread.handlers
    value = memory.read(addr)
    regs = thread.regs
    scratch = _Scratch(list(regs), cas_pc + 1, thread.end)
    out = ExecOutcome()
    positions = [None]
    pc = scratch.pc
    while pc != cas_pc:
        if len(positions) > MAX_LOOP or pc >= thread.end:
            return None
        info = infos[pc]
        if info.is_load or info.is_store or info.is_atomic or info.is_fp:
            return None
        instr = instructions[pc]
        handlers[pc](instr, scratch, memory, out)
        # Every position keeps the registers the failing cas left.
        if scratch.done or scratch.regs != regs:
            return None
        flags = (0, 0, 0)
        if info.is_branch:
            taken = bool(out.branch_taken)
            flags = (1, int(taken), int(taken and instr.target <= pc))
        positions.append(
            (pc, info.latency, info.class_index, out.activity, flags)
        )
        pc = scratch.pc
    # Back at the cas: it must read the same word and fail again.
    cas = instructions[cas_pc]
    compare = regs[cas.rs2]
    if regs[cas.rs1] != addr or compare == value:
        return None
    activity = (compare.bit_count() + value.bit_count()) / 128.0
    positions[0] = (cas_pc, latency, infos[cas_pc].class_index, activity,
                    (0, 0, 0))
    return Loop(addr, value, list(regs), positions,
                thread.stats.instructions)


class Tally:
    """Counts a run of parked issues adds to a core."""

    __slots__ = ("issues", "switches", "instructions", "branches", "taken",
                 "iterations", "cas", "counts", "weights")

    def __init__(self, n_threads: int):
        self.issues = 0
        self.switches = 0
        self.instructions = [0] * n_threads
        self.branches = [0] * n_threads
        self.taken = [0] * n_threads
        self.iterations = [0] * n_threads
        self.cas = [0] * n_threads
        self.counts: dict[int, int] = {}
        self.weights: dict[int, float] = {}

    def add(self, loop: Loop, thread: int, pos: int, switch: bool) -> None:
        self.issues += 1
        self.switches += switch
        self.instructions[thread] += 1
        b, t, i = loop.flags[pos]
        self.branches[thread] += b
        self.taken[thread] += t
        self.iterations[thread] += i
        if pos == 0:
            self.cas[thread] += 1
        ci = loop.classes[pos]
        self.counts[ci] = self.counts.get(ci, 0) + 1
        self.weights[ci] = self.weights.get(ci, 0.0) + loop.acts[pos]

    def add_scaled(self, other: "Tally", q: int) -> None:
        self.issues += q * other.issues
        self.switches += q * other.switches
        for mine, theirs in (
            (self.instructions, other.instructions),
            (self.branches, other.branches),
            (self.taken, other.taken),
            (self.iterations, other.iterations),
            (self.cas, other.cas),
        ):
            for i, n in enumerate(theirs):
                mine[i] += q * n
        for ci, n in other.counts.items():
            self.counts[ci] = self.counts.get(ci, 0) + q * n
        for ci, w in other.weights.items():
            self.weights[ci] = self.weights.get(ci, 0.0) + q * w


class Schedule:
    """The issues a parked core makes from cycle ``t0 + 1`` on.

    ``events[i]`` is ``(offset, thread, position)``: issue ``i``
    happens at ``t0 + offset``. Events ``k0..`` repeat with period
    ``period``: event ``k0 + m * np + j`` is ``events[k0 + j]`` shifted
    by ``m * period`` cycles. Built by replaying the core's
    round-robin selection, as :meth:`Core.step` makes it, until the
    selection state (positions, time to ready, round-robin pointer)
    repeats; ``None`` from :meth:`build` when it does not repeat
    within :data:`MAX_EVENTS` issues.
    """

    __slots__ = ("t0", "loops", "events", "k0", "np", "period", "base",
                 "rel", "pattern", "cas_rel", "cas_pre", "cas_next",
                 "period_tally", "start", "last")

    @classmethod
    def build(cls, core, now: int) -> "Schedule | None":
        threads = core.threads
        n_threads = len(threads)
        live = [not t.done for t in threads]
        loops = [t.spin if ok else None for t, ok in zip(threads, live)]
        pos = [0] * n_threads
        ready = [0] * n_threads
        for i, t in enumerate(threads):
            if live[i]:
                loop = loops[i]
                pos[i] = (1 + t.stats.instructions - loop.mark) % loop.n
                ready[i] = t.ready_at
        rr = core._rr_next
        events: list[tuple[int, int, int]] = []
        seen: dict[tuple, int] = {}
        t = now + 1
        while len(events) < MAX_EVENTS:
            first = min(r for r, ok in zip(ready, live) if ok)
            if first > t:
                t = first
            key = (tuple(pos), tuple(r - t if r > t else 0 for r in ready),
                   rr)
            k0 = seen.get(key)
            if k0 is not None:
                return cls(now, loops, events, k0, t - now, threads, core)
            seen[key] = len(events)
            if n_threads == 1:
                sel = 0
            else:
                sel = None
                idx = rr
                for _ in range(n_threads):
                    cand = idx
                    idx += 1
                    if idx == n_threads:
                        idx = 0
                    if live[cand] and ready[cand] <= t:
                        sel = cand
                        rr = idx
                        break
            p = pos[sel]
            loop = loops[sel]
            events.append((t - now, sel, p))
            ready[sel] = t + loop.lats[p]
            pos[sel] = p + 1 if p + 1 < loop.n else 0
            t += 1
        return None

    def __init__(self, now, loops, events, k0, end, threads, core):
        self.t0 = now
        self.loops = loops
        self.events = events
        self.k0 = k0
        self.np = len(events) - k0
        self.base = events[k0][0]
        self.period = end - self.base
        self.rel = [off - self.base for off, _, _ in events[k0:]]
        self.pattern = sum(1 << r for r in self.rel)
        # Cas offsets per watched word: before the period (absolute
        # offsets) and within it (relative to ``base``).
        self.cas_pre: dict[int, list[int]] = {}
        self.cas_rel: dict[int, list[int]] = {}
        self.cas_next: dict[int, int] = {}
        for i, (off, sel, p) in enumerate(events):
            if p == 0:
                addr = loops[sel].addr
                if i < k0:
                    self.cas_pre.setdefault(addr, []).append(off)
                else:
                    self.cas_rel.setdefault(addr, []).append(off - self.base)
        #: Core state at parking: each thread's (pc, ready_at), the
        #: last issued thread and the round-robin pointer.
        self.start = [(t.pc, t.ready_at) for t in threads]
        self.last = (core._last_issued_thread, core._rr_next)
        tally = Tally(len(threads))
        prev = events[k0 - 1][1] if k0 else core._last_issued_thread
        for _, sel, p in events[k0:]:
            tally.add(loops[sel], sel, p, prev is not None and prev != sel)
            prev = sel
        self.period_tally = tally

    # ------------------------------------------------------------ lookups
    def event(self, g: int) -> tuple[int, int, int]:
        """Issue ``g`` as ``(cycle, thread, position)``."""
        k0 = self.k0
        if g < k0:
            off, sel, p = self.events[g]
            return self.t0 + off, sel, p
        m, j = divmod(g - k0, self.np)
        off, sel, p = self.events[k0 + j]
        return self.t0 + off + m * self.period, sel, p

    def count_before(self, cycle: int) -> int:
        """How many issues happen before ``cycle``."""
        limit = cycle - self.t0
        k0 = self.k0
        events = self.events
        n = 0
        while n < k0 and events[n][0] < limit:
            n += 1
        if n < k0:
            return n
        rel = limit - self.base
        if rel <= 0:
            return k0
        m, r = divmod(rel, self.period)
        return k0 + m * self.np + bisect_left(self.rel, r)

    def next_issue(self, cycle: int) -> int:
        """The first issue cycle at or after ``cycle``."""
        return self.event(self.count_before(cycle))[0]

    def next_cas(self, addr: int, cycle: int) -> int:
        """The first cycle at or after ``cycle`` of a ``cas`` on
        ``addr``. The engine asks with non-decreasing cycles, so the
        last answer stands while it is not before ``cycle``."""
        last = self.cas_next.get(addr)
        if last is not None and last >= cycle:
            return last
        self.cas_next[addr] = at = self._next_cas(addr, cycle)
        return at

    def _next_cas(self, addr: int, cycle: int) -> int:
        t0 = self.t0
        for off in self.cas_pre.get(addr, ()):
            if t0 + off >= cycle:
                return t0 + off
        rel = self.cas_rel[addr]
        first = t0 + self.base + rel[0]
        if cycle <= first:
            return first
        period = self.period
        if len(rel) == 1:
            return first - (first - cycle) // period * period
        start = t0 + self.base
        m, r = divmod(cycle - start, period)
        j = bisect_left(rel, r)
        if j == len(rel):
            m += 1
            j = 0
        return start + m * period + rel[j]

    def cas_at(self, cycle: int) -> Loop | None:
        """The loop whose ``cas`` issues at ``cycle``, if one does."""
        at, sel, p = self.event(self.count_before(cycle))
        if at == cycle and p == 0:
            return self.loops[sel]
        return None

    def bits(self, lo: int, hi: int) -> int:
        """Issue cycles in ``[lo, hi)`` as a mask (bit ``c - lo``)."""
        mask = 0
        t0 = self.t0
        for off, _, _ in self.events[:self.k0]:
            c = t0 + off
            if lo <= c < hi:
                mask |= 1 << (c - lo)
        start = t0 + self.base
        period = self.period
        if start < lo:
            phase = (lo - start) % period
            start = lo
        else:
            phase = 0
        n = hi - start
        if n > 0:
            reps = (n + phase) // period + 1
            tile = self.pattern * (
                ((1 << (period * reps)) - 1) // ((1 << period) - 1)
            )
            mask |= ((tile >> phase) & ((1 << n) - 1)) << (start - lo)
        return mask

    def issues(self, cycle: int):
        """``(cycle, thread, position)`` of every issue before
        ``cycle``, in order."""
        for g in range(self.count_before(cycle)):
            yield self.event(g)

    # ---------------------------------------------------------- accounting
    def tally(self, cycle: int) -> tuple[Tally, int]:
        """What the issues before ``cycle`` add, and their number."""
        total = self.count_before(cycle)
        tally = Tally(len(self.loops))
        k0 = self.k0
        loops = self.loops
        prev = self.last[0]
        head = min(total, k0)
        for g in range(head):
            _, sel, p = self.events[g]
            tally.add(loops[sel], sel, p, prev is not None and prev != sel)
            prev = sel
        if total > k0:
            q, rest = divmod(total - k0, self.np)
            tally.add_scaled(self.period_tally, q)
            if q:
                prev = self.events[-1][1]
            for _, sel, p in self.events[k0:k0 + rest]:
                tally.add(loops[sel], sel, p,
                          prev is not None and prev != sel)
                prev = sel
        return tally, total

    def state(self, total: int) -> tuple[list, int | None, int]:
        """Per-thread ``(pc, ready_at)`` after the first ``total``
        issues, with the last issued thread and round-robin pointer."""
        result = list(self.start)
        last, rr = self.last
        missing = {i for i, loop in enumerate(self.loops) if loop is not None}
        if total:
            _, last, _ = self.event(total - 1)
            if len(result) > 1:
                rr = 0 if last + 1 == len(result) else last + 1
        g = total - 1
        while missing and g >= 0:
            at, sel, p = self.event(g)
            if sel in missing:
                missing.discard(sel)
                loop = self.loops[sel]
                nxt = p + 1 if p + 1 < loop.n else 0
                result[sel] = (loop.pcs[nxt], at + loop.lats[p])
            g -= 1
        return result, last, rr
