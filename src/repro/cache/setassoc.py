"""Set-associative tag store with true-LRU replacement.

This is the building block for every cache level. It tracks tags and a
per-line dirty bit; data values are not stored (the functional core
keeps architectural memory separately), which matches how the paper's
energy events depend only on *which structure was accessed*, not on the
bytes inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.params import CacheParams
from repro.cache.stats import CacheStats


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one cache access."""

    hit: bool
    evicted_line_addr: int | None = None
    evicted_dirty: bool = False


_HIT = AccessResult(hit=True)
_MISS = AccessResult(hit=False)


class SetAssocCache:
    """A set-associative cache tag store.

    Addresses are byte addresses; lines are identified internally by
    ``addr // line_bytes``. Each set is an ordered list of
    (line_addr, dirty) pairs, most recently used first, created the
    first time the set is filled (``None`` until then).
    """

    def __init__(self, params: CacheParams, name: str = "cache"):
        self.params = params
        self.name = name
        self.stats = CacheStats()
        self._line_bytes = params.line_bytes
        self._num_sets = params.num_sets
        self._ways = params.associativity
        self._sets: list[list[tuple[int, bool]] | None] = (
            [None] * self._num_sets
        )

    # --- address helpers ------------------------------------------------------
    def line_addr(self, addr: int) -> int:
        return addr // self._line_bytes

    def set_index(self, addr: int) -> int:
        return addr // self._line_bytes % self._num_sets

    # --- operations -----------------------------------------------------------
    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU or statistics."""
        line = addr // self._line_bytes
        entries = self._sets[line % self._num_sets]
        return bool(entries) and any(tag == line for tag, _ in entries)

    def access(self, addr: int, write: bool = False) -> AccessResult:
        """Look up ``addr``; on a hit, update LRU (and dirty if ``write``).

        Misses do *not* allocate — callers decide whether and when to
        :meth:`fill`, because protocol actions (fetching from the next
        level) happen in between.
        """
        line = addr // self._line_bytes
        entries = self._sets[line % self._num_sets]
        if entries:
            for i, (tag, dirty) in enumerate(entries):
                if tag == line:
                    entries.pop(i)
                    entries.insert(0, (line, dirty or write))
                    self.stats.hits += 1
                    return _HIT
        self.stats.misses += 1
        return _MISS

    def touch(self, addr: int, write: bool = False) -> None:
        """Make a resident line most recently used (and dirty if
        ``write``), as a hit does, without counting an access."""
        line = addr // self._line_bytes
        entries = self._sets[line % self._num_sets]
        for i, (tag, dirty) in enumerate(entries or ()):
            if tag == line:
                entries.pop(i)
                entries.insert(0, (line, dirty or write))
                return

    def fill(self, addr: int, dirty: bool = False) -> AccessResult:
        """Install the line containing ``addr``, evicting LRU if needed.

        Returns the evicted line's base byte address (and dirtiness) so
        the caller can issue a writeback / directory notification.
        """
        line = addr // self._line_bytes
        index = line % self._num_sets
        entries = self._sets[index]
        if entries is None:
            entries = self._sets[index] = []
        for i, (tag, was_dirty) in enumerate(entries):
            if tag == line:  # already present: refresh
                entries.pop(i)
                entries.insert(0, (line, was_dirty or dirty))
                return _HIT
        if len(entries) < self._ways:
            entries.insert(0, (line, dirty))
            return _MISS
        tag, evicted_dirty = entries.pop()
        self.stats.evictions += 1
        if evicted_dirty:
            self.stats.writebacks += 1
        entries.insert(0, (line, dirty))
        return AccessResult(
            hit=False,
            evicted_line_addr=tag * self._line_bytes,
            evicted_dirty=evicted_dirty,
        )

    def invalidate(self, addr: int) -> bool:
        """Drop the line containing ``addr``; returns True if present.

        The caller is responsible for writing back dirty data first
        (use :meth:`is_dirty`).
        """
        line = addr // self._line_bytes
        entries = self._sets[line % self._num_sets]
        if entries:
            for i, (tag, _) in enumerate(entries):
                if tag == line:
                    entries.pop(i)
                    self.stats.invalidations += 1
                    return True
        return False

    def is_dirty(self, addr: int) -> bool:
        line = addr // self._line_bytes
        entries = self._sets[line % self._num_sets]
        return bool(entries) and any(
            tag == line and dirty for tag, dirty in entries
        )

    def set_dirty(self, addr: int, dirty: bool = True) -> None:
        line = addr // self._line_bytes
        entries = self._sets[line % self._num_sets]
        for i, (tag, _) in enumerate(entries or ()):
            if tag == line:
                entries[i] = (tag, dirty)
                return
        raise KeyError(f"{self.name}: line for addr {addr:#x} not resident")

    def resident_lines(self) -> list[int]:
        """Base byte addresses of all resident lines, in set-index
        order (for invariants)."""
        return [
            tag * self._line_bytes
            for entries in self._sets
            if entries
            for tag, _ in entries
        ]

    def flush(self) -> None:
        self._sets = [None] * self._num_sets
