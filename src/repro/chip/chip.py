"""Chip-level structural composition (paper Figure 2a).

:class:`Chip` assembles the 25 tiles, the chip bridge, and the
chip-level support blocks, exposing the same structure-to-area and
structure-to-events mapping :class:`~repro.chip.tile.Tile` provides per
tile. Used by the block-level power reporter
(:mod:`repro.power.report`) and by documentation tooling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.floorplan import Floorplan
from repro.arch.params import PitonConfig
from repro.chip.tile import Tile


@dataclass(frozen=True)
class ChipBlock:
    """One chip-level (non-tile) block."""

    name: str
    area_key: str
    event_prefixes: tuple[str, ...]
    description: str


CHIP_BLOCKS: tuple[ChipBlock, ...] = (
    ChipBlock(
        "chip_bridge",
        "chip_bridge",
        ("chipbridge.",),
        "multiplexes the three NoCs over the 32-bit off-chip link",
    ),
    ChipBlock(
        "io_cells",
        "io_cells",
        ("io.",),
        "pad ring: full-swing 1.8V I/O on the VIO rail",
    ),
    ChipBlock(
        "clock_circuitry",
        "clock_circuitry",
        (),
        "PLL and clock distribution roots",
    ),
    ChipBlock(
        "oram",
        "oram",
        (),
        "ORAM controller (present on die, unused in this work)",
    ),
)


@dataclass
class Chip:
    """The full 25-tile chip as a structural object."""

    config: PitonConfig = field(default_factory=PitonConfig)

    def __post_init__(self) -> None:
        self.floorplan = Floorplan(self.config)
        self.tiles = [
            Tile(t, self.config) for t in range((self.config.tile_count))
        ]

    def tile(self, tile_id: int) -> Tile:
        if not 0 <= tile_id < self.config.tile_count:
            raise ValueError(f"tile {tile_id} out of range")
        return self.tiles[tile_id]

    def summary(self) -> dict[str, object]:
        """Headline facts (Table I / Section II)."""
        return {
            "tiles": self.config.tile_count,
            "threads": self.config.total_threads,
            "die_mm2": self.config.die_width_mm * self.config.die_height_mm,
            "transistors": self.config.transistor_count,
            "l2_total_bytes": self.config.l2_total_bytes,
            "nocs": self.config.noc.count,
            "noc_flit_bits": self.config.noc.flit_bits,
            "max_hops": self.config.max_hops,
        }
