"""Grouping a simulation grid into batchable equivalence classes.

:func:`plan_batches` partitions a request list by
:func:`~repro.batch.key.batch_keys`. Each resulting
:class:`BatchGroup` is simulated once and its outcome fanned out to
every member; singleton groups simply run as before. Planning is pure
bookkeeping — it never reorders the grid (outcomes are always emitted
in the original submission order) and it can only *miss* a merge,
never create an unsound one, because the key covers every simulation
input.

The plan also carries the observability numbers the tracer and run
manifest record: how many points coalesced, and how many *de-batch
events* occurred — points that share a workload-affinity class (same
programs, same window, same topology) but could not merge because a
timing-affecting difference (in practice: distinct core clocks on a
memory-touching workload) forced them apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.batch.key import BatchKey, batch_keys


@dataclass(frozen=True)
class BatchGroup:
    """One timing class: the grid indices that share a simulation.

    ``indices`` preserves grid order; the first member acts as the
    representative whose request is actually simulated.
    """

    key: BatchKey
    indices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def representative(self) -> int:
        return self.indices[0]


@dataclass
class BatchPlan:
    """The full partition of one grid, plus its accounting."""

    groups: list[BatchGroup] = field(default_factory=list)

    @property
    def n_points(self) -> int:
        return sum(g.size for g in self.groups)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    @property
    def points_coalesced(self) -> int:
        """Simulations saved: points served by another member's run."""
        return sum(g.size - 1 for g in self.groups)

    @property
    def max_group_size(self) -> int:
        return max((g.size for g in self.groups), default=0)

    @property
    def debatch_events(self) -> int:
        """Points pushed out of a wanted merge by a timing difference.

        Within one workload-affinity class (equal key digests), the
        first timing class is the batch the others "fell out of": each
        additional timing class in the same affinity class counts as
        one de-batch event.
        """
        classes: dict[bytes, int] = {}
        for group in self.groups:
            classes[group.key.digest] = (
                classes.get(group.key.digest, 0) + 1
            )
        return sum(n - 1 for n in classes.values())

    def summary(self) -> dict[str, int]:
        """The numbers the tracer notes on the run manifest."""
        return {
            "points": self.n_points,
            "groups": self.n_groups,
            "coalesced": self.points_coalesced,
            "debatched": self.debatch_events,
            "max_group": self.max_group_size,
        }


def plan_batches(requests: Sequence[object]) -> BatchPlan:
    """Partition ``requests`` into batch groups, first-seen order."""
    by_key: dict[BatchKey, list[int]] = {}
    for index, key in enumerate(batch_keys(requests)):
        by_key.setdefault(key, []).append(index)
    return BatchPlan(
        groups=[
            BatchGroup(key=key, indices=tuple(indices))
            for key, indices in by_key.items()
        ]
    )
