"""Per-cache hit/miss statistics."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    """Counters for one cache structure."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    invalidations: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.writebacks += other.writebacks
        self.invalidations += other.invalidations
