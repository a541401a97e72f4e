"""NoC traffic analysis: link utilization, hotspots, energy density.

After a flit-level simulation, answer the layout-facing questions the
paper's area/energy discussion raises: which links carried the traffic,
where the energy concentrated, and whether the dimension-ordered
routing skewed load onto the X rows (it does — the structural cause of
mesh hotspots). Includes an ASCII heatmap for terminal inspection.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.mesh import MeshNetwork

#: Shading ramp for the heatmap, light to heavy.
_RAMP = " .:-=+*#%@"


@dataclass(frozen=True)
class LinkLoad:
    """Traffic on one directed inter-tile link."""

    src: int
    dst: int
    flits: int


class NocAnalysis:
    """Queries over a finished (or paused) mesh simulation."""

    def __init__(self, mesh: MeshNetwork):
        self.mesh = mesh

    # ---------------------------------------------------------------- queries
    def link_loads(self) -> list[LinkLoad]:
        """Every link that carried a flit, busiest first (the mesh
        counts each link's flits as they cross it)."""
        return sorted(
            (
                LinkLoad(src, dst, flits)
                for (src, dst), flits in self.mesh.link_counts.items()
            ),
            key=lambda load: -load.flits,
        )

    def hottest_link(self) -> LinkLoad | None:
        loads = self.link_loads()
        return loads[0] if loads else None

    def total_flit_hops(self) -> int:
        return self.mesh.total_flit_hops

    def router_loads(self) -> dict[int, int]:
        return {
            router.tile_id: router.flits_routed
            for router in self.mesh.routers
            if router.flits_routed
        }

    def utilization(self, cycles: int | None = None) -> float:
        """Mean fraction of link-cycles carrying flits."""
        elapsed = cycles if cycles is not None else self.mesh.now
        if elapsed <= 0:
            return 0.0
        config = self.mesh.config
        w, h = config.mesh_width, config.mesh_height
        links = 2 * ((w - 1) * h + (h - 1) * w)  # directed mesh links
        return self.total_flit_hops() / (links * elapsed)

    # ---------------------------------------------------------------- render
    def heatmap(self) -> str:
        """ASCII heatmap of router traffic over the tile grid."""
        loads = self.router_loads()
        peak = max(loads.values(), default=0)
        config = self.mesh.config
        rows = []
        for y in range(config.mesh_height):
            cells = []
            for x in range(config.mesh_width):
                tile = y * config.mesh_width + x
                value = loads.get(tile, 0)
                if peak == 0:
                    glyph = _RAMP[0]
                else:
                    level = round(
                        (len(_RAMP) - 1) * value / peak
                    )
                    glyph = _RAMP[level]
                cells.append(glyph * 2)
            rows.append("".join(cells))
        legend = (
            f"router traffic heatmap (peak {peak} flits at a router)"
        )
        return "\n".join([legend, *rows])
