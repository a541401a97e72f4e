"""SRAM row/column repair — the flow the paper left "in development".

Piton's SRAMs carry spare rows and columns that can be remapped over
defective cells; the paper notes 8 of its 32 tested die fail only from
SRAM defects and are "possibly fixable with SRAM repair", but the
repair flow wasn't finished. This module finishes it for the
reproduction:

* :class:`SramArray` — a macro with a defect map and spare resources;
* :func:`allocate_spares` — the classic spare-allocation problem: every
  defect must be covered by a replaced row or a replaced column, using
  at most R spare rows and C spare columns. Exhaustive over defective
  rows (defect counts per die are small), so the answer is exact;
* :class:`RepairFlow` — applies allocation across a die's defective
  macros and reports whether the die is saved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class Defect:
    """One faulty cell."""

    row: int
    col: int


@dataclass
class SramArray:
    """One SRAM macro with spares."""

    name: str
    rows: int
    cols: int
    spare_rows: int = 2
    spare_cols: int = 2
    defects: list[Defect] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("array dimensions must be positive")
        if self.spare_rows < 0 or self.spare_cols < 0:
            raise ValueError("spare counts must be non-negative")
        for defect in self.defects:
            self._check(defect)

    def _check(self, defect: Defect) -> None:
        if not (0 <= defect.row < self.rows and 0 <= defect.col < self.cols):
            raise ValueError(f"{defect} outside {self.rows}x{self.cols}")

    def add_defect(self, row: int, col: int) -> None:
        defect = Defect(row, col)
        self._check(defect)
        if defect not in self.defects:
            self.defects.append(defect)


@dataclass(frozen=True)
class RepairPlan:
    """Which rows/columns to remap onto spares."""

    replaced_rows: frozenset[int]
    replaced_cols: frozenset[int]

    def covers(self, defects: Iterable[Defect]) -> bool:
        return all(
            d.row in self.replaced_rows or d.col in self.replaced_cols
            for d in defects
        )


def allocate_spares(array: SramArray) -> RepairPlan | None:
    """Exact spare allocation, or None when unrepairable.

    Strategy: any row holding more defects than the spare-column budget
    *must* be row-replaced; beyond that, enumerate row-subset choices
    among the remaining defective rows (small sets in practice) and
    column-repair the leftovers.
    """
    defects = list(array.defects)
    if not defects:
        return RepairPlan(frozenset(), frozenset())

    by_row: dict[int, list[Defect]] = {}
    for defect in defects:
        by_row.setdefault(defect.row, []).append(defect)

    forced_rows = {
        row
        for row, row_defects in by_row.items()
        if len({d.col for d in row_defects}) > array.spare_cols
    }
    if len(forced_rows) > array.spare_rows:
        return None

    optional_rows = sorted(set(by_row) - forced_rows)
    budget = array.spare_rows - len(forced_rows)

    best: RepairPlan | None = None
    for extra_count in range(min(budget, len(optional_rows)) + 1):
        for extra in combinations(optional_rows, extra_count):
            replaced_rows = forced_rows | set(extra)
            remaining_cols = {
                d.col for d in defects if d.row not in replaced_rows
            }
            if len(remaining_cols) <= array.spare_cols:
                plan = RepairPlan(
                    frozenset(replaced_rows), frozenset(remaining_cols)
                )
                assert plan.covers(defects)
                if best is None or (
                    len(plan.replaced_rows) + len(plan.replaced_cols)
                    < len(best.replaced_rows) + len(best.replaced_cols)
                ):
                    best = plan
        if best is not None:
            return best  # minimal extra-row count found
    return best


@dataclass
class RepairOutcome:
    """The repair flow's verdict for one die."""

    repaired: bool
    arrays_repaired: int = 0
    arrays_unrepairable: int = 0
    plans: dict[str, RepairPlan] = field(default_factory=dict)


class RepairFlow:
    """Applies spare allocation to all of a die's defective macros."""

    def repair_die(self, arrays: list[SramArray]) -> RepairOutcome:
        outcome = RepairOutcome(repaired=True)
        for array in arrays:
            if not array.defects:
                continue
            plan = allocate_spares(array)
            if plan is None:
                outcome.repaired = False
                outcome.arrays_unrepairable += 1
            else:
                outcome.arrays_repaired += 1
                outcome.plans[array.name] = plan
        return outcome

    def repair_random_die(
        self,
        rng: np.random.Generator,
        hard_defects: int,
        macros: int = 8,
    ) -> RepairOutcome:
        """Scatter a die's hard defects over its SRAM macros (the
        dominant arrays: L2 data/tag, L1s, register files) and run the
        flow — the hook :mod:`repro.silicon.yield_model` uses."""
        arrays = [
            SramArray(f"macro{i}", rows=256, cols=128)
            for i in range(macros)
        ]
        for _ in range(hard_defects):
            target = arrays[int(rng.integers(macros))]
            target.add_defect(
                int(rng.integers(target.rows)),
                int(rng.integers(target.cols)),
            )
        return self.repair_die(arrays)
