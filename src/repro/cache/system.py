"""Chip-wide coherent memory system.

Ties together the per-tile private caches (L1I, write-through L1D, and
the write-back L1.5 that encapsulates it), the distributed shared L2
slices with their directories, the address-interleaved homing map, and
an off-chip access model. State transitions are exact MESI; timing is
composed from :class:`~repro.cache.latency.MemoryLatencyModel` plus
floorplan hop counts; every energy-relevant action is recorded in the
shared :class:`~repro.util.events.EventLedger`.

Message sizes follow the paper: a remote L2 hit is a 3-flit request
plus a 3-flit response (Section IV-G); invalidations ride NoC2 and
acks/data responses NoC3; L1.5 dirty-line writebacks carry the 16B line
as two payload flits.

Parked loops. A core whose threads all run fixed-point loops parks
(see :mod:`repro.core.spin` and :mod:`repro.core.multicore`) while
each of its accesses repeats without a state change the engine would
have to see: a load that hits the tile's L1D, a store-buffer drain
into a line the tile's L1.5 holds MODIFIED (:meth:`hit_repeats`), and
a ``cas`` that fails on a *quiet* line (:meth:`quiet`): its home slice
has no directory entry for it (and so, the directory being exact, no
tile holds a private copy) and it is the most-recently-used, dirty
line of its set there. Each kind's ledger events live in one table
that stepping records and :meth:`repeat_hits` and
:meth:`quiet_atomics` scale, and :meth:`touch_private` replays a
parked core's last L1D and L1.5 touches. Every ``cas`` leaves its line
quiet: it pops the directory entry, invalidates every private copy,
touches the line last in its set and marks it dirty. A private line
can change only through its own tile's fills or through a lookup,
fill or recall in its set at its home slice, and a quiet line only
through a lookup or fill there, which reports the set's watched
addresses in :attr:`~CoherentMemorySystem.disturbed`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.arch.floorplan import Floorplan
from repro.arch.params import PitonConfig
from repro.cache.addressing import AddressMap
from repro.cache.cdr import CdrRegistry
from repro.cache.coherence import CoherenceError, DirectoryEntry, MesiState
from repro.cache.l2 import L2Slice, RecallAction
from repro.cache.latency import default_latency_model
from repro.cache.setassoc import SetAssocCache
from repro.noc.mitts import MittsShaper
from repro.util.events import EventLedger

# Message lengths in flits (header + payload).
REQUEST_FLITS = 3
RESPONSE_FLITS = 3
INVALIDATE_FLITS = 2
ACK_FLITS = 1

#: Ledger events, as ``(event, count)``, of a load (recorded on every
#: load, before its L1D lookup) and of a store-buffer drain (recorded
#: on every drain, before its L1D write).
LOAD_EVENTS = (("l1d.read", 1),)
DRAIN_EVENTS = (("l1d.write", 1), ("l15.write", 1))

#: ``(flit, flit_hop)`` ledger event names of each physical NoC.
_NOC_EVENTS = {
    network: (f"noc{network}.flit", f"noc{network}.flit_hop")
    for network in (1, 2, 3)
}


def fixed_offchip_model(
    cycles: int = 390,
) -> Callable[[int, bool, int], int]:
    """A trivial off-chip model: constant round-trip latency.

    The full system replaces this with
    :class:`repro.chip.offchip.OffChipPath`, which models the chip
    bridge, gateway FPGA, chipset, and DDR3 timing of Figure 15.
    """

    def access(line_addr: int, write: bool = False, now: int = 0) -> int:
        del line_addr, write, now
        return cycles

    return access


@dataclass(frozen=True)
class MemoryAccessOutcome:
    """Latency and classification of one memory operation."""

    latency: int
    level: str  # "l1" | "l15" | "l2_local" | "l2_remote" | "mem"
    hops: int = 0
    turns: int = 0
    home_tile: int | None = None


class CoherentMemorySystem:
    """All caches and directories of one chip."""

    def __init__(
        self,
        config: PitonConfig | None = None,
        ledger: EventLedger | None = None,
        address_map: AddressMap | None = None,
        offchip: Callable[[int, bool, int], int] | None = None,
        cdr: CdrRegistry | None = None,
    ):
        self.config = config or PitonConfig()
        self.ledger = ledger if ledger is not None else EventLedger()
        self.floorplan = Floorplan(self.config)
        self.address_map = address_map or AddressMap(self.config)
        self.latency = default_latency_model(self.config)
        self.offchip = offchip or fixed_offchip_model()
        #: Optional Coherence Domain Restriction registry; None means
        #: one unrestricted domain (the paper's configuration).
        self.cdr = cdr
        #: Per-tile MITTS shapers on the DRAM-bound request path; pass-
        #: through by default (the chip's reset configuration).
        self.mitts: dict[int, MittsShaper] = {}
        #: Optional :class:`repro.check.CheckSuite`; when set, every
        #: miss-path access outcome is validated (latency bounds,
        #: level classification). ``None`` keeps the paths check-free.
        self.checker = None

        n = self.config.tile_count
        self.l1i = [
            SetAssocCache(self.config.l1i, f"l1i[{t}]") for t in range(n)
        ]
        self.l1d = [
            SetAssocCache(self.config.l1d, f"l1d[{t}]") for t in range(n)
        ]
        self.l15 = [
            SetAssocCache(self.config.l15, f"l15[{t}]") for t in range(n)
        ]
        self.l2 = [
            L2Slice(t, self.config.l2_slice, self.ledger) for t in range(n)
        ]
        #: Watched words whose set a lookup or fill touched since the
        #: engine last looked (one set shared by every slice).
        self.disturbed: set[int] = set()
        for slice_ in self.l2:
            slice_.disturbed = self.disturbed
        # MESI state of each L1.5-resident line, keyed by line base addr.
        self._l15_state: list[dict[int, MesiState]] = [{} for _ in range(n)]
        self._l15_bytes = self.config.l15.line_bytes
        self._l2_bytes = self.config.l2_slice.line_bytes
        # Offsets of the L1.5-sized pieces within one L2 line.
        self._subline_offsets = tuple(
            range(0, self._l2_bytes, self._l15_bytes)
        )
        #: (tile, home) -> :meth:`_cas_route`
        self._cas_routes: dict[tuple[int, int], tuple] = {}

    def set_mitts(self, tile: int, shaper: MittsShaper) -> None:
        """Install a MITTS configuration on one tile's memory traffic."""
        if not 0 <= tile < self.config.tile_count:
            raise ValueError(f"tile {tile} out of range")
        self.mitts[tile] = shaper

    # ------------------------------------------------------------------ loads
    def load(self, tile: int, addr: int, now: int = 0) -> MemoryAccessOutcome:
        """A 64-bit load from ``tile``; returns latency and level."""
        if self.cdr is not None:
            self.cdr.check(tile, addr)
        self._record(LOAD_EVENTS, 1)
        if self.l1d[tile].access(addr).hit:
            return MemoryAccessOutcome(self.latency.l1_hit, "l1")

        # L1D miss: look in the encapsulating L1.5.
        self.ledger.record("l15.read")
        state = self._l15_state[tile].get(self._l15_line(tile, addr))
        if state is not None and state.can_read:
            self.l15[tile].access(addr)
            self._fill_l1d(tile, addr)
            latency = self.latency.l1_hit + self.latency.l15_lookup
            return MemoryAccessOutcome(latency, "l15")
        self.l15[tile].stats.misses += 1

        # Miss in both: request the line (shared) from its home slice.
        return self._fetch_from_home(tile, addr, exclusive=False, now=now)

    # ----------------------------------------------------------------- stores
    def store(self, tile: int, addr: int, now: int = 0) -> MemoryAccessOutcome:
        """A 64-bit store from ``tile`` (write-through L1D into L1.5)."""
        if self.cdr is not None:
            self.cdr.check(tile, addr)
        self._record(DRAIN_EVENTS, 1)
        l1d_hit = self.l1d[tile].access(addr, write=True).hit

        line = self._l15_line(tile, addr)
        state = self._l15_state[tile].get(line)
        if state is MesiState.MODIFIED:
            self.l15[tile].access(addr, write=True)
            return MemoryAccessOutcome(self.latency.store_buffer, "l15")
        if state is MesiState.EXCLUSIVE:
            # Silent E->M upgrade, no traffic.
            self.l15[tile].access(addr, write=True)
            self._l15_state[tile][line] = MesiState.MODIFIED
            return MemoryAccessOutcome(self.latency.store_buffer, "l15")
        if state is MesiState.SHARED:
            outcome = self._upgrade_to_owner(tile, addr)
        else:
            self.l15[tile].stats.misses += 1
            outcome = self._fetch_from_home(
                tile, addr, exclusive=True, now=now
            )
        # The store retires through the store buffer after ownership.
        if not l1d_hit:
            # No-write-allocate L1D: the write lands in the L1.5 only.
            pass
        return outcome

    # ----------------------------------------------------------------- fetch
    def fetch(self, tile: int, addr: int, now: int = 0) -> MemoryAccessOutcome:
        """Instruction fetch. The L1I is not coherent with stores in this
        model (self-modifying code is out of scope); misses stream from
        the home L2 without directory tracking."""
        self.ledger.record("l1i.read")
        if self.l1i[tile].access(addr).hit:
            return MemoryAccessOutcome(1, "l1")
        home = self.address_map.home_tile(addr)
        hops = self.floorplan.hops(tile, home)
        turns = 1 if self.floorplan.has_turn(tile, home) else 0
        self._noc_transfer(1, tile, home, REQUEST_FLITS)
        self._noc_transfer(3, home, tile, RESPONSE_FLITS + 2)
        latency = self.latency.l2_hit(hops, turns)
        if not self.l2[home].lookup(addr):
            latency += self._l2_fill_from_memory(home, addr, now)
        self.l1i[tile].fill(addr)
        self.ledger.record("l1i.fill")
        outcome = MemoryAccessOutcome(
            latency, "l2_local" if hops == 0 else "l2_remote", hops, turns, home
        )
        if self.checker is not None:
            self.checker.check_access(outcome)
        return outcome

    # ----------------------------------------------------------- atomic (CAS)
    def atomic(self, tile: int, addr: int, now: int = 0) -> MemoryAccessOutcome:
        """Atomic compare-and-swap: performed at the home L2 (as on the
        T1), invalidating every private copy of the line.

        An exclusive request to the home slice that allocates nothing
        privately: the line ends uncached above the L2 (no directory
        entry) and dirty there. Spin locks issue these back to back,
        so the path does only what changes state: one directory
        lookup, holder invalidations only when another tile holds the
        line, and its default-activity events added to the ledger
        directly, in the order the generic exclusive fetch records
        them.
        """
        if self.cdr is not None:
            self.cdr.check(tile, addr)
        counts = self.ledger.counts
        weights = self.ledger.weights
        home = self.address_map.home_tile(addr)
        hops, turns, request, response = self._cas_route(tile, home)
        for name, count, weight in request:
            counts[name] += count
            weights[name] += weight
        latency = self.latency.l2_hit(hops, turns)
        level = "l2_local" if hops == 0 else "l2_remote"
        slice_ = self.l2[home]
        if slice_.watch:
            slice_.touch(addr)
        if not slice_.tags.access(addr, write=True).hit:
            latency += self._l2_fill_from_memory(
                home, addr, now, requester=tile
            )
            level = "mem"
        line = slice_.line_addr(addr)
        entry = slice_.directory.pop(line, None)
        if entry is not None and (
            entry.sharers or (entry.owner is not None and entry.owner != tile)
        ):
            latency += self._invalidate_holders(home, addr, entry, tile)
        for name, count, weight in response:
            counts[name] += count
            weights[name] += weight
        outcome = MemoryAccessOutcome(latency, level, hops, turns, home)
        if self.checker is not None:
            self.checker.check_access(outcome)
        # The atomic result lives at the L2; drop any stale private copy
        # the requester itself held.
        self._invalidate_private(tile, addr)
        slice_.tags.set_dirty(addr, True)  # the swap lands at the L2
        return outcome

    # ----------------------------------------------------------- parked loops
    def private_line(self, addr: int) -> int:
        """Base address of the L1D/L1.5 line holding ``addr``."""
        return self._l15_line(0, addr)

    def l1d_holds(self, tile: int, addr: int) -> bool:
        return self.l1d[tile].probe(addr)

    def hit_repeats(self, tile: int, addr: int, drain: bool) -> bool:
        """Whether a load (a ``drain`` of a store) of ``addr`` from
        ``tile`` hits the L1D (lands in a line the L1.5 holds
        MODIFIED), so repeating it changes no coherence state, and its
        ledger events are recorded already."""
        if drain:
            line = self._l15_line(tile, addr)
            hit = self._l15_state[tile].get(line) is MesiState.MODIFIED
            events = DRAIN_EVENTS
        else:
            hit = self.l1d[tile].probe(addr)
            events = LOAD_EVENTS
        counts = self.ledger.counts
        return hit and all(name in counts for name, _ in events)

    def cas_repeats(self, tile: int, addr: int) -> bool:
        """Whether a failing ``cas`` from ``tile`` on ``addr`` finds its
        line quiet and its ledger events recorded already."""
        _, _, request, response = self._cas_route(
            tile, self.address_map.home_tile(addr)
        )
        counts = self.ledger.counts
        return self.quiet(addr) and all(
            name in counts for name, _, _ in request + response
        )

    def quiet_cas_latency(self, tile: int, addr: int) -> int:
        """The latency of a ``cas`` from ``tile`` on ``addr``'s quiet
        line: no fill and no holder to invalidate."""
        hops, turns, _, _ = self._cas_route(
            tile, self.address_map.home_tile(addr)
        )
        return self.latency.l2_hit(hops, turns)

    def repeat_hits(self, tile: int, loads: int, drains: int,
                    drain_hits: int) -> None:
        """Account ``loads`` L1D load hits and ``drains`` drains into
        MODIFIED L1.5 lines (``drain_hits`` of which hit the L1D) from
        ``tile``: what :meth:`load` and :meth:`store` record for each,
        and nothing else."""
        if loads:
            self._record(LOAD_EVENTS, loads)
            self.l1d[tile].stats.hits += loads
        if drains:
            self._record(DRAIN_EVENTS, drains)
            stats = self.l1d[tile].stats
            stats.hits += drain_hits
            stats.misses += drains - drain_hits
            self.l15[tile].stats.hits += drains

    def touch_private(self, tile: int, addr: int, drain: bool) -> None:
        """Replay a load's (a drain's) LRU touch of ``addr`` in
        ``tile``'s L1D (and L1.5), where the line is still resident.
        A drain dirties the L1.5 line only while the tile still holds
        it MODIFIED: a foreign read since then left it SHARED and
        clean."""
        self.l1d[tile].touch(addr, drain)
        if drain:
            state = self._l15_state[tile].get(self._l15_line(tile, addr))
            self.l15[tile].touch(addr, state is MesiState.MODIFIED)

    def _record(self, events, n: int) -> None:
        counts = self.ledger.counts
        weights = self.ledger.weights
        for name, count in events:
            counts[name] += n * count
            weights[name] += n * count * 0.5

    def quiet(self, addr: int) -> bool:
        """Whether ``addr``'s line is quiet: no directory entry at its
        home slice, and the most-recently-used, dirty line of its set
        there."""
        slice_ = self.l2[self.address_map.home_tile(addr)]
        if slice_.line_addr(addr) in slice_.directory:
            return False
        tags = slice_.tags
        entries = tags._sets[tags.set_index(addr)]
        return bool(entries) and entries[0] == (tags.line_addr(addr), True)

    def watch(self, addr: int, on: bool) -> None:
        """Start (``on``) or stop reporting lookups and fills in the
        set of ``addr``'s line at its home slice."""
        slice_ = self.l2[self.address_map.home_tile(addr)]
        index = slice_.tags.set_index(addr)
        if on:
            slice_.watch.setdefault(index, set()).add(addr)
        else:
            words = slice_.watch[index]
            words.discard(addr)
            if not words:
                del slice_.watch[index]

    def quiet_atomics(self, tile: int, addr: int, n: int) -> None:
        """Account ``n`` failing ``cas`` from ``tile`` on ``addr``'s
        quiet line: what :meth:`atomic` records for each (its
        default-activity events, one tag hit at the home slice, and
        the checker's access check), and nothing else."""
        home = self.address_map.home_tile(addr)
        _, _, request, response = self._cas_route(tile, home)
        counts = self.ledger.counts
        weights = self.ledger.weights
        for name, count, weight in request + response:
            counts[name] += n * count
            weights[name] += n * weight
        self.l2[home].tags.stats.hits += n
        if self.checker is not None:
            self.checker.merge_counts({"access": n})

    # ----------------------------------------------------------------- guts
    def _cas_route(self, tile: int, home: int) -> tuple:
        """``(hops, turns, request, response)`` of a ``cas`` from
        ``tile`` to its line's ``home`` slice. ``request`` and
        ``response`` hold the default-activity events :meth:`atomic`
        records before its L2 lookup and after its holder
        invalidations, as ``(event, count, weight)`` in recording
        order; :meth:`quiet_atomics` scales the same events."""
        route = self._cas_routes.get((tile, home))
        if route is None:
            floorplan = self.floorplan
            hops = floorplan.hops(tile, home)
            turns = 1 if floorplan.has_turn(tile, home) else 0
            request = [("l15.write", 1), ("noc1.flit", REQUEST_FLITS)]
            response = [("noc3.flit", RESPONSE_FLITS)]
            if hops:
                request.append(("noc1.flit_hop", REQUEST_FLITS * hops))
                response.append(("noc3.flit_hop", RESPONSE_FLITS * hops))
            request += [("l2.write", 1), ("dir.lookup", 1)]
            route = self._cas_routes[tile, home] = (
                hops, turns,
                tuple((name, n, n * 0.5) for name, n in request),
                tuple((name, n, n * 0.5) for name, n in response),
            )
        return route

    def _fetch_from_home(
        self,
        tile: int,
        addr: int,
        exclusive: bool,
        now: int = 0,
    ) -> MemoryAccessOutcome:
        home = self.address_map.home_tile(addr)
        hops = self.floorplan.hops(tile, home)
        turns = 1 if self.floorplan.has_turn(tile, home) else 0
        self._noc_transfer(1, tile, home, REQUEST_FLITS)

        latency = self.latency.l2_hit(hops, turns)
        level = "l2_local" if hops == 0 else "l2_remote"

        l2_hit = self.l2[home].lookup(addr, write=exclusive)
        if not l2_hit:
            latency += self._l2_fill_from_memory(
                home, addr, now, requester=tile
            )
            level = "mem"

        entry = self.l2[home].entry(addr)
        if exclusive:
            latency += self._invalidate_holders(home, addr, entry, tile)
            entry.sharers.clear()
            entry.owner = None
            entry.set_owner(tile)
            grant = MesiState.MODIFIED
        else:
            if entry.owner is not None and entry.owner != tile:
                latency += self._downgrade_owner(home, addr)
            if entry.owner == tile:
                entry.owner = None  # stale; re-granted below
            if entry.uncached:
                entry.set_owner(tile)
                grant = MesiState.EXCLUSIVE
            else:
                entry.add_sharer(tile)
                grant = MesiState.SHARED

        self._noc_transfer(3, home, tile, RESPONSE_FLITS)
        self._fill_l15(tile, addr, grant)
        if not exclusive:
            self._fill_l1d(tile, addr)
        outcome = MemoryAccessOutcome(latency, level, hops, turns, home)
        if self.checker is not None:
            self.checker.check_access(outcome)
        return outcome

    def _upgrade_to_owner(self, tile: int, addr: int) -> MemoryAccessOutcome:
        """S -> M upgrade: invalidate the other sharers via the home."""
        home = self.address_map.home_tile(addr)
        hops = self.floorplan.hops(tile, home)
        turns = 1 if self.floorplan.has_turn(tile, home) else 0
        self._noc_transfer(1, tile, home, REQUEST_FLITS)
        if not self.l2[home].lookup(addr, write=True):
            raise CoherenceError(
                f"upgrade for line not resident at home slice {home}"
            )
        entry = self.l2[home].entry(addr)
        latency = self.latency.l2_hit(hops, turns)
        latency += self._invalidate_holders(home, addr, entry, tile)
        entry.sharers.clear()
        entry.owner = None
        entry.set_owner(tile)
        self._noc_transfer(3, home, tile, ACK_FLITS)
        self.l15[tile].access(addr, write=True)
        line = self._l15_line(tile, addr)
        self._l15_state[tile][line] = MesiState.MODIFIED
        return MemoryAccessOutcome(
            latency, "l2_local" if hops == 0 else "l2_remote", hops, turns, home
        )

    def _invalidate_holders(
        self, home: int, addr: int, entry: DirectoryEntry, except_tile: int
    ) -> int:
        """Invalidate every private copy ``entry`` (the line's directory
        entry at ``home``) records, except ``except_tile``'s.

        Returns the added latency (the slowest invalidation round trip).
        """
        worst = 0
        targets = set(entry.sharers)
        if entry.owner is not None:
            targets.add(entry.owner)
        targets.discard(except_tile)
        for target in targets:
            self._noc_transfer(2, home, target, INVALIDATE_FLITS)
            dirty = self._invalidate_private(target, addr)
            flits = ACK_FLITS + (2 if dirty else 0)
            self._noc_transfer(3, target, home, flits)
            if dirty:
                self.l2[home].writeback_data(addr)
            round_trip = 2 * (
                self.floorplan.hops(home, target) * self.latency.hop
                + (1 if self.floorplan.has_turn(home, target) else 0)
                * self.latency.turn
            ) + self.latency.l15_lookup
            worst = max(worst, round_trip)
        return worst

    def _downgrade_owner(self, home: int, addr: int) -> int:
        """Owner (E or M) loses exclusivity for a read-shared grant."""
        entry = self.l2[home].entry(addr)
        owner = entry.owner
        assert owner is not None
        self._noc_transfer(2, home, owner, INVALIDATE_FLITS)
        dirty = False
        for subline in self._l2_sublines(addr):
            state = self._l15_state[owner].get(subline)
            if state is None:
                continue
            dirty = dirty or state is MesiState.MODIFIED
            self._l15_state[owner][subline] = MesiState.SHARED
            if self.l15[owner].probe(subline):
                self.l15[owner].set_dirty(subline, False)
        flits = ACK_FLITS + (2 if dirty else 0)
        self._noc_transfer(3, owner, home, flits)
        if dirty:
            self.l2[home].writeback_data(addr)
        entry.downgrade_owner_to_sharer()
        return 2 * (
            self.floorplan.hops(home, owner) * self.latency.hop
            + (1 if self.floorplan.has_turn(home, owner) else 0)
            * self.latency.turn
        ) + self.latency.l15_lookup

    def _l2_fill_from_memory(
        self, home: int, addr: int, now: int = 0, requester: int | None = None
    ) -> int:
        """Fetch the line from DRAM into the home slice, shaped by the
        requesting tile's MITTS configuration when one is installed."""
        line_addr = self.l2[home].line_addr(addr)
        mitts_delay = 0
        shaper = self.mitts.get(requester) if requester is not None else None
        if shaper is not None:
            release = shaper.release_time(now)
            mitts_delay = release - now
            if mitts_delay:
                self.ledger.record("mitts.stall_cycle", mitts_delay)
        # The shaped wait precedes the request; the channel itself is
        # debited at call time (transaction-level approximation that
        # keeps unshaped tenants from queueing behind future-dated
        # shaped requests).
        cycles = mitts_delay + self.offchip(line_addr, False, now)
        # While the miss is outstanding the requesting core's thread
        # scheduler, replay logic, and L1.5 MSHR/CCX retry path stay
        # active (the T1 speculatively reschedules the missing thread).
        self.ledger.record("mem.outstanding_cycle", cycles)
        recall = self.l2[home].fill(addr)
        if recall is not None:
            self._execute_recall(home, recall, now)
        self.ledger.record("mem.line_fetch")
        return cycles

    def _execute_recall(self, home: int, recall: RecallAction, now: int = 0) -> None:
        targets = set(recall.sharers)
        if recall.owner is not None:
            targets.add(recall.owner)
        dirty_any = recall.dirty_writeback
        for target in targets:
            self._noc_transfer(2, home, target, INVALIDATE_FLITS)
            dirty = self._invalidate_private(target, recall.line_addr)
            dirty_any = dirty_any or dirty
            self._noc_transfer(3, target, home, ACK_FLITS + (2 if dirty else 0))
        if dirty_any:
            self.offchip(recall.line_addr, True, now)
            self.ledger.record("mem.line_writeback")

    def _invalidate_private(self, tile: int, addr: int) -> bool:
        """Drop every private copy a tile holds of the *L2 line*
        containing ``addr``; returns True if any sub-line was dirty.

        The directory tracks 64B L2 lines while the L1/L1.5 hold 16B
        lines, so one coherence action must sweep all four sub-lines.
        A sub-line without an L1.5 state is in neither private cache
        (L1.5-resident lines are exactly the state keys and the L1D is
        a subset of them, which :meth:`check_invariants` verifies), so
        the sweep skips it.
        """
        states = self._l15_state[tile]
        if not states:
            return False
        dirty = False
        base = addr // self._l2_bytes * self._l2_bytes
        for offset in self._subline_offsets:
            subline = base + offset
            state = states.pop(subline, None)
            if state is None:
                continue
            dirty = dirty or state is MesiState.MODIFIED
            self.l1d[tile].invalidate(subline)
            self.l15[tile].invalidate(subline)
        return dirty

    def _l2_sublines(self, addr: int) -> list[int]:
        """Base addresses of the L1.5-granularity pieces of the L2
        line containing ``addr``."""
        base = addr // self._l2_bytes * self._l2_bytes
        return [base + off for off in self._subline_offsets]

    def _fill_l15(self, tile: int, addr: int, state: MesiState) -> None:
        self.ledger.record("l15.fill")
        result = self.l15[tile].fill(
            addr, dirty=state is MesiState.MODIFIED
        )
        line = self._l15_line(tile, addr)
        self._l15_state[tile][line] = state
        if result.evicted_line_addr is not None:
            self._evict_l15_line(tile, result.evicted_line_addr)

    def _evict_l15_line(self, tile: int, line_addr: int) -> None:
        """Capacity eviction from the L1.5: notify home, write back dirty
        data, and maintain L1D inclusion. The tile only leaves the
        directory's sharer/owner sets once it holds *no* sub-line of
        the 64B L2 line."""
        state = self._l15_state[tile].pop(line_addr, None)
        self.l1d[tile].invalidate(line_addr)
        home = self.address_map.home_tile(line_addr)
        dirty = state is MesiState.MODIFIED
        flits = ACK_FLITS + (2 if dirty else 0)
        self._noc_transfer(3, tile, home, flits)
        if dirty:
            self.l2[home].writeback_data(line_addr)
        still_held = any(
            subline in self._l15_state[tile]
            for subline in self._l2_sublines(line_addr)
        )
        if not still_held:
            self.l2[home].drop_private(line_addr, tile)

    def _fill_l1d(self, tile: int, addr: int) -> None:
        self.ledger.record("l1d.fill")
        self.l1d[tile].fill(addr)

    def _l15_line(self, tile: int, addr: int) -> int:
        """Base address of ``tile``'s L1.5 line holding ``addr`` (every
        tile's L1.5 has the same geometry)."""
        del tile
        return addr // self._l15_bytes * self._l15_bytes

    def _noc_transfer(self, network: int, src: int, dst: int, flits: int) -> None:
        """Record flit-hop events for a message on physical NoC ``network``."""
        hops = self.floorplan.hops(src, dst)
        flit, flit_hop = _NOC_EVENTS[network]
        self.ledger.record(flit, flits)
        if hops:
            self.ledger.record(flit_hop, flits * hops)

    # ------------------------------------------------------------- invariants
    def check_invariants(self) -> None:
        """Protocol safety: single writer, directory/private agreement,
        and private-cache inclusion: per tile, the L1.5-resident lines
        are exactly the lines with a MESI state, and every L1D line
        lies in one of them."""
        for slice_ in self.l2:
            slice_.check_invariants()
        for tile in range(self.config.tile_count):
            states = self._l15_state[tile]
            resident = set(self.l15[tile].resident_lines())
            if resident != states.keys():
                raise CoherenceError(
                    f"tile {tile}: L1.5 lines without a MESI state "
                    f"{sorted(resident - states.keys())}, states without "
                    f"an L1.5 line {sorted(states.keys() - resident)}"
                )
            for line in self.l1d[tile].resident_lines():
                if self._l15_line(tile, line) not in states:
                    raise CoherenceError(
                        f"tile {tile}: L1D line {line:#x} has no L1.5 copy"
                    )
        # Collect private states per line.
        holders: dict[int, list[tuple[int, MesiState]]] = {}
        for tile in range(self.config.tile_count):
            for line, state in self._l15_state[tile].items():
                holders.setdefault(line, []).append((tile, state))
        for line, entries in holders.items():
            exclusive = [
                t
                for t, s in entries
                if s in (MesiState.MODIFIED, MesiState.EXCLUSIVE)
            ]
            if len(exclusive) > 1:
                raise CoherenceError(
                    f"line {line:#x} exclusively held by {exclusive}"
                )
            if exclusive and len(entries) > 1:
                raise CoherenceError(
                    f"line {line:#x} has owner {exclusive} and sharers"
                )
            home = self.address_map.home_tile(line)
            dir_entry = self.l2[home].directory.get(
                self.l2[home].line_addr(line)
            )
            if dir_entry is None:
                raise CoherenceError(
                    f"line {line:#x} cached privately but untracked at home"
                )
            for tile, state in entries:
                # State-precise agreement: an exclusive private state
                # must be backed by directory ownership, and a shared
                # one by sharer membership — "tracked somehow" is not
                # enough (a flipped S->M tag must trip this).
                if state in (MesiState.MODIFIED, MesiState.EXCLUSIVE):
                    tracked = dir_entry.owner == tile
                else:
                    # Line ownership subsumes sharer rights: a tile
                    # that owns the 64B line may hold sibling 16B
                    # sub-lines in S without a sharer record.
                    tracked = (
                        tile in dir_entry.sharers or dir_entry.owner == tile
                    )
                if not tracked:
                    raise CoherenceError(
                        f"line {line:#x} held {state} by tile {tile} "
                        "but directory records owner "
                        f"{dir_entry.owner} sharers {sorted(dir_entry.sharers)}"
                    )
            if self.cdr is not None:
                allowed = self.cdr.allowed_sharers(
                    line, self.config.tile_count
                )
                holders_of_line = {t for t, _ in entries}
                if not holders_of_line <= allowed:
                    raise CoherenceError(
                        f"line {line:#x} cached outside its coherence "
                        f"domain: {holders_of_line - allowed}"
                    )
