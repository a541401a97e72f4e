"""Multi-socket Piton systems: inter-chip shared memory modelling.

"The NoCs and coherence protocol extend off-chip, enabling multi-socket
Piton systems with support for inter-chip shared memory" (Section II).
This module models what that costs: a remote-socket L2 access leaves
through the requester's chip bridge, crosses the inter-chip link, rides
the remote mesh to the home slice, and returns — each leg priced with
the same latency segments and pad energies the single-chip models use.

The model is transaction-level (latency + energy per access class)
rather than a full cross-chip protocol simulation; it is the
quantitative scaffolding for topology studies like the Figure 2a
multi-chip arrangement, and composes with CDR
(:mod:`repro.cache.cdr`), which exists precisely to keep sharing
domains from paying these costs chip-wide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.floorplan import Floorplan
from repro.arch.params import PitonConfig
from repro.cache.latency import MemoryLatencyModel
from repro.chip.chipbridge import ChipBridge
from repro.util.events import EventLedger

#: Cycles for one crossing of the chip bridge + inter-chip wires, each
#: direction (the Figure 15 chip-bridge/gateway segments without the
#: DRAM-controller legs: AFIFO+mux 5, gateway 39, FMC 9, demux 11).
INTERCHIP_CROSSING_CYCLES = 5 + 39 + 9 + 11

#: Flits per remote L2 transaction (3-flit request + 3-flit response).
TRANSACTION_FLITS = 6


@dataclass
class MultiChipTopology:
    """An WxH array of Piton chips joined by their chip bridges."""

    sockets_x: int = 2
    sockets_y: int = 1
    config: PitonConfig = field(default_factory=PitonConfig)

    def __post_init__(self) -> None:
        if self.sockets_x <= 0 or self.sockets_y <= 0:
            raise ValueError("socket array dimensions must be positive")
        self.floorplan = Floorplan(self.config)
        self.latency = MemoryLatencyModel()
        self.bridge = ChipBridge(self.config)

    @property
    def socket_count(self) -> int:
        return self.sockets_x * self.sockets_y

    @property
    def total_tiles(self) -> int:
        return self.socket_count * self.config.tile_count

    def socket_of(self, global_tile: int) -> int:
        if not 0 <= global_tile < self.total_tiles:
            raise ValueError(f"tile {global_tile} out of range")
        return global_tile // self.config.tile_count

    def local_tile(self, global_tile: int) -> int:
        return global_tile % self.config.tile_count

    def socket_hops(self, socket_a: int, socket_b: int) -> int:
        ax, ay = socket_a % self.sockets_x, socket_a // self.sockets_x
        bx, by = socket_b % self.sockets_x, socket_b // self.sockets_x
        return abs(ax - bx) + abs(ay - by)

    # ---------------------------------------------------------------- latency
    def l2_access_cycles(self, requester: int, home: int) -> int:
        """Round-trip cycles for a load that hits the L2 slice homed at
        global tile ``home``, requested from global tile ``requester``.

        On-socket accesses use the single-chip model. Cross-socket
        accesses additionally traverse: requester mesh to its chip
        bridge (tile 0), the inter-chip crossing(s), and the remote
        mesh from the remote bridge to the home slice — each way.
        """
        req_socket = self.socket_of(requester)
        home_socket = self.socket_of(home)
        req_local = self.local_tile(requester)
        home_local = self.local_tile(home)
        if req_socket == home_socket:
            hops = self.floorplan.hops(req_local, home_local)
            turns = (
                1 if self.floorplan.has_turn(req_local, home_local) else 0
            )
            return self.latency.l2_hit(hops, turns)

        # Leg 1: requester tile -> its chip bridge at tile 0.
        hops_out = self.floorplan.hops(req_local, 0)
        turns_out = 1 if self.floorplan.has_turn(req_local, 0) else 0
        # Leg 2: remote bridge (tile 0) -> home slice.
        hops_in = self.floorplan.hops(0, home_local)
        turns_in = 1 if self.floorplan.has_turn(0, home_local) else 0
        mesh = self.latency.l2_hit(
            hops_out + hops_in, turns_out + turns_in
        )
        crossings = self.socket_hops(req_socket, home_socket)
        return mesh + 2 * crossings * INTERCHIP_CROSSING_CYCLES

    # ----------------------------------------------------------------- energy
    def l2_access_energy_events(
        self, requester: int, home: int, ledger: EventLedger | None = None
    ) -> EventLedger:
        """Record the NoC + pad events of one remote L2 transaction."""
        ledger = ledger if ledger is not None else EventLedger()
        req_socket = self.socket_of(requester)
        home_socket = self.socket_of(home)
        req_local = self.local_tile(requester)
        home_local = self.local_tile(home)
        if req_socket == home_socket:
            mesh_hops = self.floorplan.hops(req_local, home_local)
        else:
            mesh_hops = self.floorplan.hops(
                req_local, 0
            ) + self.floorplan.hops(0, home_local)
            crossings = self.socket_hops(req_socket, home_socket)
            # Both chips' pads switch on each crossing, both directions.
            bridge = ChipBridge(self.config, ledger)
            for _ in range(2 * crossings):
                bridge.transfer_flits(TRANSACTION_FLITS)
        ledger.record("noc1.flit_hop", 3 * mesh_hops)
        ledger.record("noc3.flit_hop", 3 * mesh_hops)
        ledger.record("noc1.router_pass", 3 * (mesh_hops + 1))
        ledger.record("noc3.router_pass", 3 * (mesh_hops + 1))
        return ledger
