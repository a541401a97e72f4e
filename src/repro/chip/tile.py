"""Structural tile composition (paper Figure 2b).

A :class:`Tile` is the structural inventory of one mesh node: the
modified OpenSPARC T1 core, the L1.5, the L2 slice with its directory,
the three NoC routers, the FPU, the CCX arbiter, and the MITTS traffic
shaper. It does not *simulate* (the engine and memory system do); it
cross-references each block to its Figure 8 area entry and to the
power-model events it generates — the structural map a researcher
needs to go from a measured number back to RTL blocks, which is the
open-source advantage the paper argues for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.params import PitonConfig


@dataclass(frozen=True)
class TileBlock:
    """One structural block of a tile."""

    name: str
    area_key: str  # key into the Figure 8 tile-level breakdown
    event_prefixes: tuple[str, ...]  # ledger events this block emits
    description: str


TILE_BLOCKS: tuple[TileBlock, ...] = (
    TileBlock(
        "core",
        "core",
        ("instr.", "core."),
        "modified OpenSPARC T1: single-issue, 6-stage, 2-way FG-MT, "
        "Execution Drafting",
    ),
    TileBlock(
        "l15",
        "l15_cache",
        ("l15.",),
        "8KB write-back private data cache encapsulating the "
        "write-through L1D; CCX-to-NoC transducer",
    ),
    TileBlock(
        "l2_slice",
        "l2_cache",
        ("l2.", "dir."),
        "64KB shared-distributed L2 slice with integrated directory "
        "cache (MESI, CDR)",
    ),
    TileBlock(
        "noc1_router", "noc1_router", ("noc1.",),
        "request network router (dimension-ordered wormhole)",
    ),
    TileBlock(
        "noc2_router", "noc2_router", ("noc2.",),
        "forward/invalidate network router",
    ),
    TileBlock(
        "noc3_router", "noc3_router", ("noc3.",),
        "response network router",
    ),
    TileBlock("fpu", "fpu", ("instr.fp_",), "floating-point unit"),
    TileBlock(
        "mitts", "mitts", ("mitts.",),
        "memory inter-arrival time traffic shaper",
    ),
    TileBlock(
        "ccx", "config_regs", (),
        "CPU-cache crossbar arbiter + config registers",
    ),
)


@dataclass
class Tile:
    """Structural description of one tile."""

    tile_id: int
    config: PitonConfig = field(default_factory=PitonConfig)

    @property
    def blocks(self) -> tuple[TileBlock, ...]:
        return TILE_BLOCKS

    def block(self, name: str) -> TileBlock:
        for candidate in TILE_BLOCKS:
            if candidate.name == name:
                return candidate
        raise KeyError(
            f"no block {name!r}; have {[b.name for b in TILE_BLOCKS]}"
        )
