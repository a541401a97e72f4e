"""Classic synthetic NoC traffic patterns for the flit-level mesh.

The NoC literature the paper engages ([28]–[32], [36]) evaluates
routers under standard patterns; this module provides them over the
reproduction's mesh so its NoC power findings can be stress-tested
beyond the Figure 12 point-to-point stream:

* uniform random,
* transpose (tile (x, y) -> (y, x)),
* bit-complement over the tile index,
* hotspot (a fraction of traffic targets one tile),
* neighbour (each tile to its east neighbour, wrapping).

Each generator yields (src, dst) pairs; :func:`drive` injects them at a
chosen rate and returns the mesh + delivery statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.floorplan import Floorplan, TileCoord
from repro.arch.params import PitonConfig
from repro.noc.flit import Packet
from repro.noc.mesh import MeshNetwork


def uniform_random(
    count: int, rng: np.random.Generator, config: PitonConfig
) -> list[tuple[int, int]]:
    n = config.tile_count
    return [
        (int(rng.integers(n)), int(rng.integers(n))) for _ in range(count)
    ]


def transpose(count: int, config: PitonConfig) -> list[tuple[int, int]]:
    if config.mesh_width != config.mesh_height:
        raise ValueError("transpose needs a square mesh")
    fp = Floorplan(config)
    pairs = []
    tiles = list(fp.all_tiles())
    for i in range(count):
        src = tiles[i % len(tiles)]
        coord = fp.coord_of(src)
        dst = fp.tile_id_of(TileCoord(coord.y, coord.x))
        pairs.append((src, dst))
    return pairs


def bit_complement(count: int, config: PitonConfig) -> list[tuple[int, int]]:
    n = config.tile_count
    pairs = []
    for i in range(count):
        src = i % n
        dst = (n - 1) - src
        pairs.append((src, dst))
    return pairs


def hotspot(
    count: int,
    rng: np.random.Generator,
    config: PitonConfig,
    hot_tile: int = 12,
    hot_fraction: float = 0.5,
) -> list[tuple[int, int]]:
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError("hot fraction must be in [0, 1]")
    n = config.tile_count
    pairs = []
    for _ in range(count):
        src = int(rng.integers(n))
        if rng.random() < hot_fraction:
            dst = hot_tile
        else:
            dst = int(rng.integers(n))
        pairs.append((src, dst))
    return pairs


def neighbour(count: int, config: PitonConfig) -> list[tuple[int, int]]:
    fp = Floorplan(config)
    pairs = []
    tiles = list(fp.all_tiles())
    for i in range(count):
        src = tiles[i % len(tiles)]
        coord = fp.coord_of(src)
        dst = fp.tile_id_of(
            TileCoord((coord.x + 1) % config.mesh_width, coord.y)
        )
        pairs.append((src, dst))
    return pairs


@dataclass
class TrafficStats:
    """Delivery statistics of one driven pattern."""

    injected: int
    delivered: int
    cycles: int
    mean_latency: float
    peak_latency: int
    flit_hops: int


def drive(
    pairs: list[tuple[int, int]],
    config: PitonConfig | None = None,
    payload_words: int = 2,
    inject_every: int = 1,
    network_id: int = 1,
) -> tuple[MeshNetwork, TrafficStats]:
    """Inject ``pairs`` at one packet per ``inject_every`` cycles and
    run to drain."""
    if inject_every < 1:
        raise ValueError("injection interval must be >= 1")
    config = config or PitonConfig()
    mesh = MeshNetwork(config, network_id=network_id)
    for k, (src, dst) in enumerate(pairs):
        while mesh.now < k * inject_every:
            mesh.step()
        mesh.inject(
            Packet.build(dst, [(0x5555 * (k + 1)) & ((1 << 64) - 1)]
                         * payload_words),
            src,
        )
    mesh.drain()
    latencies = [
        p.latency for p in mesh.delivered if p.latency is not None
    ]
    stats = TrafficStats(
        injected=len(pairs),
        delivered=len(mesh.delivered),
        cycles=mesh.now,
        mean_latency=(
            sum(latencies) / len(latencies) if latencies else 0.0
        ),
        peak_latency=max(latencies, default=0),
        flit_hops=mesh.total_flit_hops,
    )
    return mesh, stats
