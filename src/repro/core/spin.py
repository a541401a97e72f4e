"""Fixed-point loops: the loop test and the parked issue schedule.

A thread runs a *fixed-point loop* when one iteration, dry-run from
where it stands, leaves its registers as the previous iteration left
them. Every later iteration then repeats exactly, for as long as the
memory it touches does: the same pcs, latencies, activities, branch
outcomes and addresses, and at each position the same registers.
:func:`loop_at` decides this at a loop head, the target of a taken
backward branch or the instruction after a failing ``cas``, and
records each position's registers, which un-parking restores. The
memory a loop touches must repeat as well (:meth:`Loop.holds`): its
``ldx`` hit the tile's L1D, its stores write the value the word
already holds into a line the tile's L1.5 holds MODIFIED (so a drain
costs the store buffer's cycles and makes no traffic), and its ``cas``
fail on quiet lines, which is how a spin lock waits.

Limits: a loop holds at most :data:`MAX_LOOP` instructions and no
floating-point op; a store that meets a full store buffer (a
roll-back) keeps its core stepping, and so does an interleave that has
not repeated within :data:`MAX_EVENTS` events (a core that found no
orbit replays again only after a wait that doubles with each miss);
and counted loops, whose counter changes every iteration, never park.

A core whose unfinished threads all run fixed-point loops *parks* (see
:mod:`repro.core.multicore`): its issues and store-buffer drains then
follow a fixed :class:`Schedule`, the round-robin interleave of its
threads' loops and the buffer's serial drains, which is periodic. The
periodic part, an :class:`Orbit`, is found once per engine for each
set of loop timing tables by replaying that interleave until its state
repeats (:func:`replay`, the one replay of the core's round-robin
issue: two-thread blocks and the trace recorder replay finite tables
with it), and every core whose state lies on it shares it: a core parks
when its state at its next visit is one of the orbit's, and steps its
transient until then. Counts, masks and next accesses come from the
orbit's event lists by ``divmod`` and ``bisect``, and
:meth:`Schedule.account` adds in bulk what stepping would have added
before a cycle: whole iterations are one multiplication of the loop's
per-position sums, which are exact because every count and activity
weight is dyadic. Loops with the same instructions, activities and
branch outcomes (the spin loops of different lock holders, or one
program on many cores) share one table of those sums.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import accumulate

from repro.core.semantics import ExecOutcome
from repro.core.storebuffer import StoreEntry

#: Longest loop :func:`loop_at` follows (fig11's ``stx (NF)`` loop has
#: 201 instructions).
MAX_LOOP = 256

#: Events replayed while looking for an orbit; a core whose interleave
#: has not repeated by then keeps stepping.
MAX_EVENTS = 8192

#: Cycles a core that found no orbit waits before replaying again; the
#: wait doubles with each miss.
FIRST_WAIT = 64

#: Position kinds.
PLAIN, LOAD, STORE, CAS = range(4)

#: A cycle no schedule reaches.
FAR = 1 << 62


class Loop:
    """One fixed-point loop. Position 0 is the head it was decided at;
    position ``p`` is the ``p``-th issue after it. A thread on it keeps
    its instruction count at position 0 as ``loop_mark``.

    Per position: ``pcs``, ``lats`` (the issue latency: an L1D hit for
    a load, one cycle for a store, the quiet line's for a ``cas``),
    ``kinds``, ``addrs`` (a memory op's address, else ``None``),
    ``values`` (the word a memory op reads or stores) and ``regs`` (the
    registers before it issues). ``stores`` lists the store positions
    in order; ``timing`` holds the latencies and each position's index
    in ``stores`` (-1 for others), all the schedule depends on.
    ``cum[c][p]`` sums column ``c`` of what positions ``0..p-1`` add to
    their thread and core (see :meth:`span`): branches, taken branches,
    iterations, loads and stores, then a count and a weight column for
    each instruction class in ``classes``. ``sums`` holds the tables
    of the engine's loops by content, for loops with equal rows to
    share.
    """

    __slots__ = ("pcs", "lats", "kinds", "addrs", "values", "regs", "n",
                 "stores", "timing", "classes", "memory", "sums", "_rows",
                 "_cum")

    def __init__(self, rows, sums: dict):
        (self.pcs, self.lats, self.kinds, self.addrs, self.values,
         self.regs, *self._rows) = zip(*rows)
        self.n = n = len(rows)
        self.sums = sums
        kinds = self.kinds
        self.stores = tuple(p for p in range(n) if kinds[p] == STORE)
        slots = [-1] * n
        for i, p in enumerate(self.stores):
            slots[p] = i
        self.timing = (self.lats, tuple(slots))
        self.memory = tuple(p for p in range(n) if kinds[p] != PLAIN)
        self._cum = None

    @property
    def cum(self) -> list:
        if self._cum is None:  # built on first use: most never park
            key = (self.kinds, *self._rows)
            found = self.sums.get(key)
            if found is None:
                classes, acts, flags = self._rows
                kinds = self.kinds
                order = sorted(set(classes))
                columns = [*zip(*flags), [k == LOAD for k in kinds],
                           [k == STORE for k in kinds]]
                for ci in order:
                    columns.append([c == ci for c in classes])
                    columns.append([a if c == ci else 0
                                    for c, a in zip(classes, acts)])
                found = self.sums[key] = (order, [
                    list(accumulate(column, initial=0))
                    for column in columns
                ])
            self.classes, self._cum = found
        return self._cum

    def position(self, thread) -> int | None:
        """Where ``thread`` stands on this loop, or ``None`` when its pc
        or registers are not the loop's there."""
        p = (thread.stats.instructions - thread.loop_mark) % self.n
        if self.pcs[p] == thread.pc and self.regs[p] == thread.regs:
            return p
        return None

    def holds(self, core) -> bool:
        """Whether the memory this loop touches still repeats for
        ``core``: every word holds the value the loop reads or stores,
        every access repeats as a private hit or a failing ``cas`` on a
        quiet line, and the ledger already has the events it adds."""
        read = core.memory.read
        memsys, tile = core.memsys, core.tile_id
        for p in self.memory:
            addr, kind = self.addrs[p], self.kinds[p]
            if read(addr) != self.values[p]:
                return False
            if kind == CAS:
                if not memsys.cas_repeats(tile, addr):
                    return False
            elif not memsys.hit_repeats(tile, addr, kind == STORE):
                return False
        return True

    def span(self, start: int, count: int) -> list:
        """The column sums of ``count`` issues from position ``start``
        on."""
        n, cum = self.n, self.cum
        q, r = divmod(count, n)
        end = start + r
        if end <= n:
            part = [c[end] - c[start] for c in cum]
        else:
            part = [c[n] - c[start] + c[end - n] for c in cum]
        if q:
            part = [x + q * c[n] for x, c in zip(part, cum)]
        return part


def loop_at(core, thread) -> Loop | None:
    """The fixed-point loop whose head ``thread`` stands at, or
    ``None``: one iteration, dry-run on a copy of its registers until
    the pc is back at the head, must leave the registers unchanged."""
    if thread.done:
        return None
    memory, memsys = core.memory, core.memsys
    instructions, infos, handlers = (
        thread.instructions, thread.infos, thread.handlers
    )
    head = thread.pc
    start = thread.regs
    regs = thread.regs = start.copy()
    out = ExecOutcome()
    rows = []
    try:
        while len(rows) < MAX_LOOP:
            pc = thread.pc
            info = infos[pc]
            if info.is_fp:
                return None
            instr = instructions[pc]
            before = regs.copy()
            kind, addr, value, lat = PLAIN, None, 0, info.latency
            if info.is_atomic:
                addr = regs[instr.rs1]
                value = memory.read(addr)
                if value == regs[instr.rs2]:
                    return None  # it would swap
                kind = CAS
                lat = memsys.quiet_cas_latency(core.tile_id, addr)
            handlers[pc](instr, thread, memory, out)
            if info.is_load:
                kind, addr, lat = LOAD, out.mem_addr, memsys.latency.l1_hit
                value = memory.read(addr)
            elif info.is_store:
                kind, addr, value, lat = STORE, out.mem_addr, out.store_value, 1
                if memory.read(addr) != value:
                    return None
            flags = (0, 0, 0)
            if info.is_branch:
                taken = bool(out.branch_taken)
                flags = (1, int(taken), int(taken and instr.target <= pc))
            rows.append((pc, lat, kind, addr, value, before,
                         info.class_index, out.activity, flags))
            if thread.done:
                return None
            if thread.pc == head:
                return Loop(rows, core.orbits.sums) if regs == start \
                    else None
        return None
    finally:
        thread.regs, thread.pc, thread.done = start, head, False


class Orbit:
    """A periodic issue pattern: event ``e`` of each ``period`` cycles
    happens ``cyc[e]`` cycles into it. ``codes[e]`` is ``~thread`` for
    a drain of that thread's store, else ``thread << 2`` plus 2 for a
    store (a push) and 1 for a thread switch. ``groups`` lists the
    event indices of each group: thread ``i``'s issues (group ``i``),
    pushes (``T + i``) and drains (``2T + i``), then the switches
    (``3T``), for ``T`` threads."""

    __slots__ = ("codes", "cyc", "period", "np", "pattern", "groups")

    def __init__(self, codes, cyc, period: int, n_threads: int):
        self.codes, self.cyc, self.period = codes, cyc, period
        self.np = len(codes)
        pattern = 0
        for c in cyc:
            pattern |= 1 << c
        self.pattern = pattern
        groups = [[] for _ in range(3 * n_threads + 1)]
        for e, code in enumerate(codes):
            if code < 0:
                groups[2 * n_threads + ~code].append(e)
                continue
            sel = code >> 2
            groups[sel].append(e)
            if code & 2:
                groups[n_threads + sel].append(e)
            if code & 1:
                groups[3 * n_threads].append(e)
        self.groups = groups


class Orbits:
    """What one engine's cores found out about their loops: for each
    loop timing signature, ``states`` maps every visit state of its
    orbits to ``(orbit, event index)``; ``sums`` holds the per-position
    sums of each loop content (see :attr:`Loop.cum`)."""

    def __init__(self):
        self.states: dict[tuple, dict] = {}
        self.sums: dict[tuple, tuple] = {}


def replay(tables, pos, ready, rr, last, t, span, buf, head, capacity,
           drain, states) -> tuple:
    """Replay the core's round-robin issue over per-thread position
    tables, and its store buffer's drains, as :meth:`Core.step` makes
    them from visit cycle ``t``. ``pos`` and ``ready`` hold each
    thread's position and ready cycle, and are updated in place; ``rr``
    is the pointer and ``last`` the thread that issued last.

    ``tables[i]`` is ``(lats, slots)``, ``None`` once thread ``i``
    finished: position ``p`` issues with latency ``lats[p]`` and pushes
    store ``slots[p]`` into ``buf`` unless that is -1 (an entry is
    ``thread << 8 | slot``; the head drains at ``head``, each next one
    ``drain`` cycles on). A loop's table wraps; a finite one ends at a
    ``None`` latency. The replay stops before a thread would issue
    there or at a cycle ``>= span``.

    Returns ``(codes, cycles, hit)``: the events, coded as an
    :class:`Orbit`'s, and their cycles. Only given ``states`` does it
    look for a period: it stops when its state repeats or joins an
    orbit there (an orbit found joins ``states``), and ``hit`` is the
    orbit and event index of the state at ``t`` if it lies on one, else
    ``None``, as when a store finds the buffer full or
    :data:`MAX_EVENTS` events pass.
    """
    n_threads = len(tables)
    live = [i for i, table in enumerate(tables) if table is not None]
    codes: list[int] = []
    cycles: list[int] = []
    visits: list[tuple] = []
    seen: dict[tuple, int] = {}
    while states is None or len(codes) < MAX_EVENTS:
        if states is not None:
            # The state at visit cycle t, flat: what decides every
            # later issue and drain.
            key = (*pos, *[r - t if r > t else 0 for r in ready], rr, last,
                   -1 if head is None else head - t, *buf)
            hit = states.get(key) if states else None
            if hit:
                return codes, cycles, None if visits else hit
            first = seen.get(key)
            if first is not None:
                _, e0, t0 = visits[first]
                orbit = Orbit(codes[e0:], [c - t0 for c in cycles[e0:]],
                              t - t0, n_threads)
                for state, e, _ in visits[first:]:
                    states[state] = (orbit, e - e0)
                # The state at t is on it iff the period starts there.
                return codes, cycles, states.get(visits[0][0])
            seen[key] = len(visits)
            visits.append((key, len(codes), t))
        if head is not None and head <= t:
            codes.append(~(buf.popleft() >> 8))
            cycles.append(t)
            head = t + drain if buf else None
        sel = None
        idx = rr
        for _ in range(n_threads):
            cand = idx
            idx = idx + 1 if idx + 1 < n_threads else 0
            if tables[cand] is not None and ready[cand] <= t:
                sel, rr = cand, idx
                break
        if sel is not None:
            lats, slots = tables[sel]
            p = pos[sel]
            lat = lats[p]
            if lat is None or t >= span:
                break
            code = sel << 2
            s = slots[p]
            if s >= 0:
                if len(buf) >= capacity:
                    break
                buf.append(sel << 8 | s)
                code |= 2
                if head is None:
                    head = t + drain
            if last is not None and last != sel:
                code |= 1
            codes.append(code)
            cycles.append(t)
            ready[sel] = t + lat
            pos[sel] = p + 1 if p + 1 < len(lats) else 0
            last = sel
        nxt = head
        for i in live:
            if nxt is None or ready[i] < nxt:
                nxt = ready[i]
        t = nxt if nxt > t else t + 1
    return codes, cycles, None


def schedule(core) -> "Schedule | None":
    """The schedule ``core`` parks on from its next visit, or ``None``
    when it cannot park yet: a thread's loop no longer fits it, the
    memory stops repeating, or its state lies on no orbit, known or
    found by a replay (which waits :attr:`Core.park_wait` cycles after
    one that found none)."""
    threads = core.threads
    loops, pos, ready = [], [], []
    for thread in threads:
        if thread.done:
            loops.append(None)
            pos.append(-1)
            ready.append(0)
            continue
        loop = thread.loop
        p = None if loop is None else loop.position(thread)
        if p is None:
            thread.loop = None
            return None
        loops.append(loop)
        pos.append(p)
        ready.append(thread.ready_at)
    # Each buffered store is one its thread's loop made: the last ones
    # before the thread's position, in order.
    sb = core.store_buffer
    push0 = [0] * len(threads)
    back = [0] * len(threads)
    for i, loop in enumerate(loops):
        if loop is not None and loop.stores:
            push0[i] = bisect_left(loop.stores, pos[i]) % len(loop.stores)
    buf = deque()
    for entry in reversed(sb._entries):
        i = entry.thread_id
        loop = loops[i]
        if loop is None or not loop.stores:
            return None
        back[i] += 1
        s = (push0[i] - back[i]) % len(loop.stores)
        p = loop.stores[s]
        if loop.addrs[p] != entry.addr or loop.values[p] != entry.value:
            return None
        buf.appendleft(i << 8 | s)
    t = core.next_event
    head = sb._head_done_at
    rr, last = core._rr_next, core._last_issued_thread
    sig = (tuple(loop and loop.timing for loop in loops), sb.capacity,
           sb.drain_cycles)
    states = core.orbits.states.setdefault(sig, {})
    hit = states.get((*pos, *[r - t if r > t else 0 for r in ready], rr,
                      last, -1 if head is None else head - t, *buf))
    if hit is None and core.park_retry is not None and t < core.park_retry:
        return None
    for loop in loops:
        if loop is not None and not loop.holds(core):
            return None
    if hit is None:
        _, _, hit = replay(
            [loop and loop.timing for loop in loops], list(pos),
            list(ready), rr, last, t, FAR, deque(buf), head, sb.capacity,
            sb.drain_cycles, states,
        )
        if hit is None:
            core.park_retry = t + core.park_wait
            core.park_wait *= 2
            return None
    core.park_retry = None
    core.park_wait = FIRST_WAIT
    drain0 = [
        (push0[i] - back[i]) % len(loop.stores) if loop and loop.stores
        else 0
        for i, loop in enumerate(loops)
    ]
    return Schedule(core, hit, t, loops, pos, push0, drain0)


class Schedule:
    """The issues and drains of a parked core from cycle ``first`` on:
    event ``x`` of the core is event ``j + x`` of the endless repetition
    of its :class:`Orbit`, whose index 0 falls at cycle ``origin``.

    ``loops``, ``pos``, ``push0`` and ``drain0`` give each thread's
    loop, position, next pushed store and next drained store (indices
    in ``loop.stores``) at the start. ``words`` maps each ``cas`` word
    to the value its ``cas`` reads there, ``lines`` each private line
    the loops touch to whether a load needs it in the L1D and whether
    a drain needs it MODIFIED. ``broken`` is the cycle the core must
    un-park by, because a line stopped repeating."""

    __slots__ = ("orbit", "j", "first", "origin", "loops", "pos", "push0",
                 "drain0", "hits", "init", "pushed", "base", "nt", "access",
                 "times", "last", "words", "lines", "broken")

    def __init__(self, core, hit, first, loops, pos, push0, drain0):
        orbit, j = hit
        self.orbit, self.j, self.first = orbit, j, first
        self.origin = first - orbit.cyc[j]
        self.loops, self.pos = loops, pos
        self.push0, self.drain0 = push0, drain0
        sb = core.store_buffer
        self.init = list(sb._entries)
        self.pushed = sb.pushed
        self.nt = nt = len(loops)
        self.base = [self._cum(g, j) for g in range(3 * nt + 1)]
        self.broken = FAR
        # addr -> (group, period, start, target) of each access to it,
        # and the cycles of its accesses in the first orbit period
        # (relative to ``first``), built on first use
        self.access: dict[int, list] = {}
        self.times: dict[int, list] = {}
        self.last: dict[int, int] = {}
        self.words: dict[int, int] = {}
        self.lines: dict[int, tuple[bool, bool]] = {}
        memsys, tile = core.memsys, core.tile_id
        line_of = memsys.private_line
        #: per thread, whether each store's drain hits the L1D
        self.hits = [
            loop and [memsys.l1d_holds(tile, loop.addrs[p])
                      for p in loop.stores]
            for loop in loops
        ]
        for i, loop in enumerate(loops):
            if loop is None:
                continue
            for p in loop.memory:
                kind, addr = loop.kinds[p], loop.addrs[p]
                if kind == CAS:
                    self.words[addr] = loop.values[p]
                    self._add(addr, i, loop.n, pos[i], p)
                    continue
                line = line_of(addr)
                load, store = self.lines.get(line, (False, False))
                if kind == LOAD:
                    self.lines[line] = (True, store)
                    self._add(line, i, loop.n, pos[i], p)
                else:
                    self.lines[line] = (load, True)
                    self._add(line, 2 * nt + i, len(loop.stores),
                              drain0[i], loop.timing[1][p])

    def _add(self, addr, group, period, start, target) -> None:
        self.access.setdefault(addr, []).append(
            (group, period, start, target))

    # ------------------------------------------------------------ lookups
    def _cum(self, g: int, y: int) -> int:
        """Events of group ``g`` among orbit events ``0..y-1``."""
        group = self.orbit.groups[g]
        if not group:
            return 0
        m, r = divmod(y, self.orbit.np)
        return m * len(group) + bisect_left(group, r)

    def count(self, g: int, n: int) -> int:
        """Events of group ``g`` among the core's first ``n``."""
        return self._cum(g, self.j + n) - self.base[g]

    def find(self, g: int, k: int) -> int:
        """The core's event index of group ``g``'s ``k``-th event."""
        group = self.orbit.groups[g]
        m, r = divmod(self.base[g] + k, len(group))
        return m * self.orbit.np + group[r] - self.j

    def cycle(self, x: int) -> int:
        """The cycle of the core's event ``x``."""
        orbit = self.orbit
        m, r = divmod(self.j + x, orbit.np)
        return self.origin + m * orbit.period + orbit.cyc[r]

    def count_before(self, cycle: int) -> int:
        """How many events happen before ``cycle``."""
        orbit = self.orbit
        m, r = divmod(cycle - self.origin, orbit.period)
        n = m * orbit.np + bisect_left(orbit.cyc, r) - self.j
        return n if n > 0 else 0

    def next_visit(self, cycle: int) -> int:
        """The first issue or drain cycle at or after ``cycle``."""
        return self.cycle(self.count_before(cycle))

    def next_access(self, addr: int, cycle: int) -> int:
        """The first cycle at or after ``cycle`` of an access to
        ``addr``: a ``cas`` word, or a line loaded or drained into.
        The engine asks with non-decreasing cycles, so the last answer
        stands while it is not before ``cycle``."""
        last = self.last.get(addr)
        if last is not None and last >= cycle:
            return last
        times = self.times.get(addr)
        if times is None:
            times = self.times[addr] = self._times(addr)
        rel = cycle - self.first
        if rel <= 0:
            at = self.first + times[0]
        else:
            period = self.orbit.period
            m, r = divmod(rel, period)
            k = bisect_left(times, r)
            if k == len(times):
                m, k = m + 1, 0
            at = self.first + m * period + times[k]
        self.last[addr] = at
        return at

    def _times(self, addr: int) -> list:
        # Positions repeat with the orbit, so the accesses of the
        # core's first orbit period are all of them, shifted.
        times = []
        for g, period, start, target in self.access[addr]:
            per = len(self.orbit.groups[g])
            for k in range((target - start) % period, per, period):
                times.append(self.cycle(self.find(g, k)) - self.first)
        return sorted(times)

    def cas_word(self, cycle: int) -> int | None:
        """The word a ``cas`` issued at ``cycle`` reads, if one does."""
        for word in self.words:
            if self.next_access(word, cycle) == cycle:
                return word
        return None

    def bits(self, lo: int, hi: int) -> int:
        """Issue and drain cycles in ``[lo, hi)`` as a mask (bit
        ``c - lo``)."""
        start = lo if lo > self.first else self.first
        n = hi - start
        if n <= 0:
            return 0
        orbit = self.orbit
        period = orbit.period
        phase = (start - self.origin) % period
        reps = (n + phase) // period + 1
        tile = orbit.pattern * (
            ((1 << (period * reps)) - 1) // ((1 << period) - 1)
        )
        return ((tile >> phase) & ((1 << n) - 1)) << (start - lo)

    def issues(self, cycle: int):
        """``(cycle, thread, position)`` of every issue before
        ``cycle``, in order."""
        orbit = self.orbit
        done = [0] * self.nt
        for x in range(self.count_before(cycle)):
            code = orbit.codes[(self.j + x) % orbit.np]
            if code >= 0:
                sel = code >> 2
                loop = self.loops[sel]
                yield self.cycle(x), sel, (self.pos[sel] + done[sel]) % loop.n
                done[sel] += 1

    # ---------------------------------------------------------- accounting
    def account(self, core, now: int) -> int:
        """Add to ``core`` what stepping would have added for every
        event before ``now``, restore its threads' registers, pcs and
        ready times and its store buffer, replay the last touch of each
        line in its private caches, and return the number of issues."""
        total = self.count_before(now)
        if not total:
            return 0
        nt = self.nt
        threads = core.threads
        memsys, tile = core.memsys, core.tile_id
        counts, weights = core._class_counts, core._class_weights
        issues = loads = drains = drain_hits = 0
        final = (-1, None)
        touches = []  # (event, addr, drain)
        pushes = []  # (event, thread, store index)
        for i, loop in enumerate(self.loops):
            if loop is None:
                continue
            thread = threads[i]
            n, s = loop.n, self.pos[i]
            k = self.count(i, total)
            if k:
                issues += k
                v = loop.span(s, k)
                ts = thread.stats
                ts.instructions += k
                ts.branches += v[0]
                ts.branches_taken += v[1]
                ts.iterations += v[2]
                ts.loads += v[3]
                ts.stores += v[4]
                loads += v[3]
                for slot, ci in enumerate(loop.classes):
                    counts[ci] += v[5 + 2 * slot]
                    weights[ci] += v[6 + 2 * slot]
                x = self.find(i, k - 1)
                final = max(final, (x, i))
                at = (s + k) % n
                thread.pc = loop.pcs[at]
                thread.regs = loop.regs[at].copy()
                thread.ready_at = self.cycle(x) + loop.lats[(at - 1) % n]
                for p in loop.memory:
                    kind = loop.kinds[p]
                    if kind == STORE:
                        continue
                    # The last issue of position p, if any.
                    last = k - 1 - (s + k - 1 - p) % n
                    if last < 0:
                        continue
                    if kind == CAS:
                        memsys.quiet_atomics(tile, loop.addrs[p],
                                             k // n + (last >= k - k % n))
                    else:
                        touches.append(
                            (self.find(i, last), loop.addrs[p], False))
            m = len(loop.stores)
            if not m:
                continue
            d = self.count(2 * nt + i, total)
            drains += d
            d0 = self.drain0[i]
            for q in range(m):
                last = d - 1 - (d0 + d - 1 - q) % m
                if last < 0:
                    continue
                if self.hits[i][q]:
                    drain_hits += d // m + (last >= d - d % m)
                touches.append((self.find(2 * nt + i, last),
                                loop.addrs[loop.stores[q]], True))
            u = self.count(nt + i, total)
            for back in range(1, min(u, core.store_buffer.capacity) + 1):
                pushes.append((self.find(nt + i, u - back), i,
                               (self.push0[i] + u - back) % m))
        memsys.repeat_hits(tile, loads, drains, drain_hits)
        touches.sort()
        for _, addr, drain in touches:
            memsys.touch_private(tile, addr, drain)
        self._restore_buffer(core, total, drains, pushes)
        if issues:
            core.stats.cycles += issues
            core.add_issues(issues, self.count(3 * nt, total), final[1])
        return issues

    def _restore_buffer(self, core, total, drains, pushes) -> None:
        """The store buffer after the first ``total`` events: ``drains``
        of its entries drained, and ``pushes`` (event, thread, store
        index) holding the last pushes of each thread."""
        sb = core.store_buffer
        pushed = sum(self.count(self.nt + i, total) for i in range(self.nt))
        left = len(self.init) + pushed - drains
        pushes.sort()
        new = pushes[len(pushes) - min(left, pushed):] if left else []
        old = left - len(new)
        entries = self.init[len(self.init) - old:] if old else []
        seq = self.pushed + pushed - len(new)
        for _, i, s in new:
            loop = self.loops[i]
            p = loop.stores[s]
            entries.append(StoreEntry(loop.addrs[p], loop.values[p], i, seq))
            seq += 1
        sb._entries = deque(entries)
        sb.pushed = self.pushed + pushed
        sb.drained += drains
        head = None
        if entries:
            for i in range(self.nt):
                g = 2 * self.nt + i
                if self.orbit.groups[g]:
                    at = self.cycle(self.find(g, self.count(g, total)))
                    if head is None or at < head:
                        head = at
        sb._head_done_at = head
