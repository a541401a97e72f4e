"""Cycle-level mesh network simulation with per-link activity tracking.

Every inter-tile link remembers the last payload it carried; each
traversal records a ``noc{k}.flit_hop`` event weighted by the Hamming
switching fraction and a ``noc{k}.coupling`` event weighted by the
opposite-direction adjacent-bit fraction. Router traversals record
``noc{k}.router_pass``. These are exactly the quantities the Figure 12
energy model prices.

A cycle costs what its traffic needs: only routers that may hold a
flit are arbitrated, each only at the outputs its occupied inputs
request, and a cycle with nothing buffered or queued for injection
only advances the clock. Routes and links come from per-shape tables
instead of coordinate arithmetic. A router is built when a flit first
reaches its tile, so a stream pays for the routers on its route;
reading :attr:`MeshNetwork.routers` builds the rest.
"""

from __future__ import annotations

import functools
from collections import deque

from repro.arch.params import PitonConfig
from repro.noc.flit import Flit, Packet
from repro.noc.router import PORTS, Port, Router, is_turn
from repro.util.events import EventLedger

#: Round-robin scan order from each pointer value, as ``(index, port)``.
_RR_SCAN = tuple(
    tuple(enumerate(PORTS))[start:] + tuple(enumerate(PORTS))[:start]
    for start in range(len(PORTS))
)

#: Output ports of each request mask (bit ``port`` set), in port order.
_REQUESTED = tuple(
    tuple(p for p in PORTS if mask >> p & 1) for mask in range(1 << len(PORTS))
)

#: Output port -> (dx, dy, input port the flit arrives on downstream).
_STEPS = {
    Port.NORTH: (0, -1, Port.SOUTH),
    Port.EAST: (1, 0, Port.WEST),
    Port.SOUTH: (0, 1, Port.NORTH),
    Port.WEST: (-1, 0, Port.EAST),
}


@functools.cache
def _mesh_tables(width: int, height: int) -> tuple[tuple, tuple]:
    """Lookup tables of one mesh shape, built on first use.

    ``routes[tile][dest]`` is the output port a head flit bound for
    ``dest`` takes at ``tile`` (:meth:`Router.route_port`, X then Y).
    ``links[tile][port]`` is the ``(neighbour, input port, (tile,
    neighbour))`` an output port feeds, the last being the link's key,
    or ``None`` for the local port and the mesh edge.
    """
    tiles = [Router(t, t % width, t // width) for t in range(width * height)]

    def link(router: Router, port: Port) -> tuple | None:
        if port is Port.LOCAL:
            return None
        dx, dy, reverse = _STEPS[port]
        x, y = router.x + dx, router.y + dy
        if 0 <= x < width and 0 <= y < height:
            return y * width + x, reverse, (router.tile_id, y * width + x)
        return None

    routes = tuple(
        tuple(r.route_port(d.x, d.y) for d in tiles) for r in tiles
    )
    links = tuple(tuple(link(r, p) for p in PORTS) for r in tiles)
    return routes, links


class MeshNetwork:
    """One physical NoC of the three."""

    #: Step interval between invariant sweeps when a checker is
    #: installed (``drain`` also sweeps once after finishing).
    CHECK_INTERVAL = 64

    def __init__(
        self,
        config: PitonConfig | None = None,
        ledger: EventLedger | None = None,
        network_id: int = 1,
    ):
        self.config = config or PitonConfig()
        self.ledger = ledger if ledger is not None else EventLedger()
        self.network_id = network_id
        # Each tile's router, ``None`` until a flit first reaches it.
        self._routers: list[Router | None] = [None] * self.config.tile_count
        self._routes, self._links = _mesh_tables(
            self.config.mesh_width, self.config.mesh_height
        )
        self._router_pass = f"noc{network_id}.router_pass"
        self._flit_hop = f"noc{network_id}.flit_hop"
        self._coupling = f"noc{network_id}.coupling"
        # Link switching state: last payload per directed link, plus
        # exact per-link flit counts for traffic analysis.
        self._link_last: dict[tuple[int, int], int] = {}
        self.link_counts: dict[tuple[int, int], int] = {}
        # Flits waiting at the injection port of each tile that injected.
        self._inject_queues: dict[int, deque[Flit]] = {}
        # Tiles whose injection queue, and routers whose input queues,
        # may hold flits: supersets of the occupied ones (emptied
        # entries are dropped lazily), so a fault that edits a queue
        # in place never hides a flit from the step loop.
        self._injecting: set[int] = set()
        self._busy: set[int] = set()
        self.delivered: list[Packet] = []
        self._eject_partial: dict[int, list[Flit]] = {}
        # Undelivered packets by the identity of their tail flit.
        self._awaiting: dict[int, Packet] = {}
        self.now = 0
        self.total_flit_hops = 0
        # Flit-conservation ledger and forward-progress watermark for
        # the invariant checkers; maintained unconditionally (integer
        # adds), consumed only when ``checker`` is installed.
        self.flits_injected = 0
        self.flits_ejected = 0
        self.last_progress = 0
        #: Optional :class:`repro.check.CheckSuite`; ``None`` keeps
        #: the step loop check-free.
        self.checker = None

    @property
    def routers(self) -> list[Router]:
        """Every tile's router, in tile order; builds those no flit has
        reached, which are in their initial state."""
        for tile, router in enumerate(self._routers):
            if router is None:
                self._build(tile)
        return self._routers

    def _build(self, tile: int) -> Router:
        width = self.config.mesh_width
        self._routers[tile] = Router(tile, tile % width, tile // width)
        return self._routers[tile]

    # ------------------------------------------------------------- injection
    def inject(self, packet: Packet, at_tile: int) -> None:
        """Queue a packet for injection at ``at_tile``'s local port."""
        if not 0 <= at_tile < len(self._routers):
            raise ValueError(f"no tile {at_tile} in the mesh")
        packet.injected_at = self.now
        if packet.flits:
            self._awaiting[id(packet.flits[-1])] = packet
        self._inject_queues.setdefault(at_tile, deque()).extend(packet.flits)
        self._injecting.add(at_tile)
        self.flits_injected += len(packet.flits)

    @property
    def in_flight(self) -> int:
        """Flits injected but not yet ejected."""
        queued = sum(len(self._inject_queues[t]) for t in self._injecting)
        buffered = sum(
            len(port.queue)
            for tile in self._busy
            for port in self._routers[tile].inputs.values()
        )
        partial = sum(len(f) for f in self._eject_partial.values())
        return queued + buffered + partial

    # ------------------------------------------------------------------ step
    def step(self) -> None:
        """Advance one cycle."""
        if self._injecting or self._busy:
            if self._injecting:
                self._feed_injection()
            self._apply(self._arbitrate())
        self.now += 1
        if self.checker is not None and self.now % self.CHECK_INTERVAL == 0:
            self.checker.check_mesh(self)

    def run(self, cycles: int) -> None:
        for _ in range(cycles):
            self.step()

    def drain(self, max_cycles: int = 100_000) -> None:
        """Run until every injected flit has been delivered.

        The queues are scanned only once the conservation counters
        balance. A lost or duplicated flit keeps the counters or the
        queues from reading empty, so it runs out ``max_cycles``.
        """
        for _ in range(max_cycles):
            balanced = self.flits_ejected == self.flits_injected
            if balanced and self.in_flight == 0:
                if self.checker is not None:
                    self.checker.check_mesh(self)
                return
            self.step()
        raise RuntimeError("network failed to drain (possible deadlock)")

    # ----------------------------------------------------------------- phases
    def _feed_injection(self) -> None:
        for tile in sorted(self._injecting):
            queue = self._inject_queues[tile]
            router = self._routers[tile] or self._build(tile)
            local = router.inputs[0].queue  # Port.LOCAL
            while queue and len(local) < Router.INPUT_QUEUE_DEPTH:
                local.append(queue.popleft())
            self._busy.add(tile)
            if not queue:
                self._injecting.discard(tile)

    def _arbitrate(self) -> list[tuple[int, Port, Port]]:
        """Grants of this cycle as ``(tile, in_port, out_port)``, in
        ascending tile then output-port order.

        A router arbitrates only the outputs its occupied inputs
        request: an input's locked output or, unlocked, the route of
        its head flit. No other output can grant or change state.
        """
        moves: list[tuple[int, Port, Port]] = []
        for tile in sorted(self._busy):
            router = self._routers[tile]
            routes = self._routes[tile]
            held = False
            requested = 0
            for ip in router.inputs.values():
                if ip.queue:
                    held = True
                    if ip.locked_output is not None:
                        requested |= 1 << ip.locked_output
                    elif ip.queue[0].is_head:
                        requested |= 1 << routes[ip.queue[0].dest]
            if not held:
                self._busy.discard(tile)
                continue
            for out_port in _REQUESTED[requested]:
                in_port = self._grant(router, out_port)
                if in_port is not None:
                    moves.append((tile, in_port, out_port))
        return moves

    def _grant(self, router: Router, out_port: Port) -> Port | None:
        """The input ``out_port`` moves a flit from this cycle, if any,
        once the downstream input has a free slot (the credit check)."""
        now = self.now
        index = None  # the round-robin pick's scan index, when unlocked
        in_port = router.output_locked_by[out_port]
        if in_port is not None:
            ip = router.inputs[in_port]
            if not ip.queue or ip.stall_until > now:
                return None
        else:
            routes = self._routes[router.tile_id]
            for index, in_port in _RR_SCAN[router.rr_pointer[out_port]]:
                ip = router.inputs[in_port]
                if ip.locked_output is not None or not ip.queue:
                    continue
                head = ip.queue[0]
                if not head.is_head or routes[head.dest] != out_port:
                    continue
                if ip.stall_until > now:
                    continue
                if is_turn(in_port, out_port) and ip.stall_until < now:
                    # First grant of a turning packet burns the turn cycle.
                    ip.stall_until = now + 1
                    router.rr_pointer[out_port] = index
                    return None
                break
            else:
                return None
        link = self._links[router.tile_id][out_port]
        if link is not None:  # the local port ejects without credits
            downstream = self._routers[link[0]]
            queue = downstream.inputs[link[1]].queue if downstream else ()
            if len(queue) >= Router.INPUT_QUEUE_DEPTH:
                return None
        if index is not None:
            # Lock the wormhole path.
            ip.locked_output = out_port
            router.output_locked_by[out_port] = in_port
            router.rr_pointer[out_port] = (index + 1) % len(PORTS)
        return in_port

    def _apply(self, moves: list[tuple[int, Port, Port]]) -> None:
        """Move each granted flit one hop, pricing it as
        ``EventLedger.record`` would, with ``switching_bits``'s and
        ``coupling_factor``'s arithmetic on the link's last and current
        words, summed on locals and written back once."""
        if not moves:
            return
        self.last_progress = self.now
        routers, links = self._routers, self._links
        link_last, link_counts = self._link_last, self.link_counts
        counts, weights = self.ledger.counts, self.ledger.weights
        router_pass, flit_hop = self._router_pass, self._flit_hop
        coupling = self._coupling
        pass_w = weights.get(router_pass, 0.0)
        hop_w = weights.get(flit_hop, 0.0)
        pair_w = weights.get(coupling, 0.0)
        hops = 0
        for tile, in_port, out_port in moves:
            router = routers[tile]
            ip = router.inputs[in_port]
            flit = ip.queue.popleft()
            payload = flit.payload
            router.flits_routed += 1
            pass_w += payload.bit_count() / 64.0
            if flit.is_tail:
                ip.locked_output = None
                router.output_locked_by[out_port] = None
            link = links[tile][out_port]
            if link is None:
                self._eject(tile, flit)
                continue
            neighbour, neighbour_in, key = link
            prev = link_last.get(key, 0)
            rise, fall = ~prev & payload, prev & ~payload
            opposite = (rise & (fall >> 1)) | (fall & (rise >> 1))
            hop_w += (prev ^ payload).bit_count() / 64.0
            pair_w += opposite.bit_count() / 63.0
            link_last[key] = payload
            link_counts[key] = link_counts.get(key, 0) + 1
            hops += 1
            downstream = routers[neighbour] or self._build(neighbour)
            downstream.inputs[neighbour_in].queue.append(flit)
            self._busy.add(neighbour)
        counts[router_pass] += len(moves)
        weights[router_pass] = pass_w
        if hops:
            counts[flit_hop] += hops
            weights[flit_hop] = hop_w
            counts[coupling] += hops
            weights[coupling] = pair_w
            self.total_flit_hops += hops

    def _eject(self, tile: int, flit: Flit) -> None:
        partial = self._eject_partial.setdefault(tile, [])
        partial.append(flit)
        if flit.is_tail:
            packet = self._awaiting.pop(id(flit), None)
            if packet is not None:
                packet.delivered_at = self.now + 1
                self.delivered.append(packet)
            # Partial flits stay in flight until the tail lands, so
            # the whole packet ejects at once for conservation.
            self.flits_ejected += len(partial)
            self._eject_partial[tile] = []
