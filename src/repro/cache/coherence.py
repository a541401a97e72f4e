"""MESI coherence state machine and directory bookkeeping.

Piton maintains coherence at the distributed shared L2 with a
directory-based MESI protocol carried over three NoCs (request,
forward, response — modelled as the three physical networks NoC1-3).
The directory here is exact: one entry per L2-resident line recording
either a sharer set or a single exclusive owner. Invariants
(single-writer / multiple-reader) are enforced eagerly so protocol bugs
fail loudly in tests rather than silently corrupting energy counts.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class MesiState(enum.Enum):
    """Stable states of a line in a private (L1.5) cache."""

    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"

    @property
    def can_read(self) -> bool:
        return self is not MesiState.INVALID


class CoherenceError(RuntimeError):
    """A protocol invariant was violated."""


@dataclass
class DirectoryEntry:
    """Directory state for one L2-resident line.

    Exactly one of the following holds:

    * ``owner is None and not sharers`` — uncached above the L2,
    * ``owner is None and sharers``     — read-shared by ``sharers``,
    * ``owner is not None``             — exclusively held (E or M) by
      ``owner``; ``sharers`` must be empty.
    """

    owner: int | None = None
    sharers: set[int] = field(default_factory=set)

    def check(self) -> None:
        if self.owner is not None and self.sharers:
            raise CoherenceError(
                f"line has owner {self.owner} and sharers {self.sharers}"
            )

    @property
    def uncached(self) -> bool:
        return self.owner is None and not self.sharers

    def add_sharer(self, tile: int) -> None:
        if self.owner is not None:
            raise CoherenceError(
                f"cannot add sharer {tile} while tile {self.owner} owns line"
            )
        self.sharers.add(tile)

    def set_owner(self, tile: int) -> None:
        if self.sharers:
            raise CoherenceError(
                f"cannot grant ownership to {tile} with sharers {self.sharers}"
            )
        self.owner = tile

    def downgrade_owner_to_sharer(self) -> int:
        """Owner loses exclusivity and joins the sharer set."""
        if self.owner is None:
            raise CoherenceError("downgrade with no owner")
        tile, self.owner = self.owner, None
        self.sharers.add(tile)
        return tile

    def drop(self, tile: int) -> None:
        """Remove a tile from the entry (eviction or invalidation ack)."""
        if self.owner == tile:
            self.owner = None
        else:
            self.sharers.discard(tile)
