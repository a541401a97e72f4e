"""Property-based tests: mesh geometry and flit-level routing.

The lockstep test at the end runs the mesh beside a test-local
reference that arbitrates exhaustively: every busy router calls
``_grant`` for all five outputs, every hop is priced through
``EventLedger.record``, and a flit's next router comes from tile
coordinates. The mesh, which arbitrates only requested outputs and
prices hops inline, must make the same moves and keep the same state
after every cycle.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.floorplan import Floorplan
from repro.arch.params import PitonConfig
from repro.noc.flit import Packet, coupling_factor, switching_bits
from repro.noc.mesh import MeshNetwork
from repro.noc.router import PORTS, Port, Router

FP = Floorplan()
TILES = st.integers(0, 24)
WORDS = st.integers(0, 2**64 - 1)


@given(TILES, TILES)
def test_route_is_minimal_and_dimension_ordered(src, dst):
    route = FP.route(src, dst)
    assert route[0] == src and route[-1] == dst
    assert len(route) == FP.hops(src, dst) + 1
    # X must be fully resolved before Y moves (dimension order).
    coords = [FP.coord_of(t) for t in route]
    y_started = False
    for a, b in zip(coords, coords[1:]):
        if a.y != b.y:
            y_started = True
        if a.x != b.x:
            assert not y_started, "X move after Y began"


@given(TILES, TILES)
def test_hops_symmetric_triangle(src, dst):
    assert FP.hops(src, dst) == FP.hops(dst, src)
    assert FP.hops(src, dst) == 0 or src != dst
    for mid in (0, 12, 24):
        assert FP.hops(src, dst) <= FP.hops(src, mid) + FP.hops(mid, dst)


@given(TILES, TILES)
def test_wire_length_consistent_with_hops(src, dst):
    mm = FP.wire_length_mm(src, dst)
    hops = FP.hops(src, dst)
    assert (mm == 0) == (hops == 0)
    assert mm <= hops * max(1.14452, 1.053) + 1e-9
    assert mm >= hops * min(1.14452, 1.053) - 1e-9


@given(WORDS, WORDS)
def test_switching_and_coupling_bounds(a, b):
    assert 0 <= switching_bits(a, b) <= 64
    assert 0.0 <= coupling_factor(a, b) <= 1.0
    assert switching_bits(a, a) == 0
    assert coupling_factor(a, a) == 0.0


@given(WORDS, WORDS)
def test_switching_symmetric(a, b):
    assert switching_bits(a, b) == switching_bits(b, a)


@given(
    st.integers(0, 24),
    st.integers(0, 24),
    st.lists(WORDS, min_size=1, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_any_packet_is_delivered_with_correct_latency_floor(
    src, dst, payloads
):
    mesh = MeshNetwork(PitonConfig(), network_id=1)
    packet = Packet.build(dst, payloads)
    mesh.inject(packet, src)
    mesh.drain()
    assert packet.delivered_at is not None
    hops = FP.hops(src, dst)
    turn = 1 if FP.has_turn(src, dst) else 0
    # Head flit cannot beat the physical minimum: one cycle per hop
    # plus the turn penalty plus injection/ejection cycles.
    assert packet.latency >= hops + turn


@given(
    st.lists(
        st.tuples(st.integers(0, 24), st.integers(0, 24)),
        min_size=1,
        max_size=10,
    )
)
@settings(max_examples=30, deadline=None)
def test_no_deadlock_many_packets(pairs):
    """Dimension-ordered routing is deadlock-free: any batch drains."""
    mesh = MeshNetwork(PitonConfig(), network_id=3)
    for src, dst in pairs:
        mesh.inject(Packet.build(dst, [1, 2]), src)
    mesh.drain(max_cycles=20_000)
    assert len(mesh.delivered) == len(pairs)
    assert mesh.in_flight == 0


@given(st.integers(0, 24), st.lists(WORDS, min_size=6, max_size=6))
@settings(max_examples=30, deadline=None)
def test_flit_conservation(dst, payloads):
    """Flit-hops recorded == flits x hops, exactly."""
    mesh = MeshNetwork(PitonConfig(), network_id=2)
    packet = Packet.build(dst, payloads)
    mesh.inject(packet, 0)
    mesh.drain()
    expected = len(packet) * FP.hops(0, dst)
    assert mesh.total_flit_hops == expected


@given(
    st.lists(
        st.tuples(TILES, TILES, st.lists(WORDS, max_size=6)),
        min_size=2,
        max_size=12,
    )
)
@settings(deadline=None)
def test_packets_from_many_sources_each_meet_their_latency_floor(sends):
    """Each tail delivers its own packet: with several sources racing
    to shared tiles, no packet beats its own hop and turn floor."""
    mesh = MeshNetwork(PitonConfig(), network_id=1)
    packets = []
    for src, dst, payloads in sends:
        packet = Packet.build(dst, payloads)
        mesh.inject(packet, src)
        packets.append((src, packet))
    mesh.drain(max_cycles=20_000)
    assert sorted(map(id, mesh.delivered)) == sorted(
        id(packet) for _, packet in packets
    )
    for src, packet in packets:
        turn = 1 if FP.has_turn(src, packet.dest) else 0
        assert packet.latency >= FP.hops(src, packet.dest) + turn


class _MaskedMesh(MeshNetwork):
    """The mesh under test, keeping each cycle's moves."""

    def _arbitrate(self):
        self.moves = super()._arbitrate()
        return self.moves


#: Output port -> (dx, dy, input port the flit arrives on downstream).
_STEPS = {
    Port.NORTH: (0, -1, Port.SOUTH),
    Port.EAST: (1, 0, Port.WEST),
    Port.SOUTH: (0, 1, Port.NORTH),
    Port.WEST: (-1, 0, Port.EAST),
}


class _ExhaustiveMesh(MeshNetwork):
    """Reference: ``_grant`` for all five outputs of every busy router,
    each hop priced through ``EventLedger.record``, and each hop's
    downstream input found from tile coordinates."""

    def _arbitrate(self):
        moves = []
        for tile in sorted(self._busy):
            router = self.routers[tile]
            if not any(ip.queue for ip in router.inputs.values()):
                self._busy.discard(tile)
                continue
            for out_port in PORTS:
                in_port = self._grant(router, out_port)
                if in_port is not None:
                    moves.append((tile, in_port, out_port))
        self.moves = moves
        return moves

    def _apply(self, moves):
        if moves:
            self.last_progress = self.now
        record = self.ledger.record
        for tile, in_port, out_port in moves:
            router = self.routers[tile]
            ip = router.inputs[in_port]
            flit = ip.queue.popleft()
            router.flits_routed += 1
            weight = flit.payload.bit_count() / 64.0
            record(self._router_pass, activity=weight)
            if flit.is_tail:
                ip.locked_output = None
                router.output_locked_by[out_port] = None
            if out_port == Port.LOCAL:
                self._eject(tile, flit)
                continue
            dx, dy, neighbor_in = _STEPS[out_port]
            width = self.config.mesh_width
            neighbor = (router.y + dy) * width + router.x + dx
            key = (tile, neighbor)
            prev = self._link_last.get(key, 0)
            toggled = switching_bits(prev, flit.payload)
            record(self._flit_hop, activity=toggled / 64.0)
            record(self._coupling,
                   activity=coupling_factor(prev, flit.payload))
            self._link_last[key] = flit.payload
            self.link_counts[key] = self.link_counts.get(key, 0) + 1
            self.total_flit_hops += 1
            queue = self.routers[neighbor].inputs[neighbor_in].queue
            if len(queue) >= Router.INPUT_QUEUE_DEPTH:
                raise OverflowError(f"router {neighbor} {neighbor_in!r}")
            queue.append(flit)
            self._busy.add(neighbor)


def _mesh_state(mesh):
    """Everything a cycle can change, in comparable form."""
    return (
        mesh.now,
        mesh.moves,
        list(mesh.ledger.counts.items()),
        list(mesh.ledger.weights.items()),
        mesh.link_counts,
        [
            (
                router.flits_routed,
                router.rr_pointer,
                router.output_locked_by,
                [
                    (ip.locked_output, ip.stall_until, list(ip.queue))
                    for ip in router.inputs.values()
                ],
            )
            for router in mesh.routers
        ],
    )


#: Injections ``(src, dst, payload words, cycles to the next one)``:
#: sources anywhere, so routes turn, into a few shared destinations,
#: so wormholes block one another and input queues fill up.
contended_traffic = st.lists(
    st.tuples(
        TILES,
        st.sampled_from((2, 12, 14, 22)),
        st.lists(WORDS, max_size=6),
        st.integers(0, 3),
    ),
    min_size=2,
    max_size=14,
)


@given(contended_traffic)
def test_request_masks_arbitrate_like_every_output(traffic):
    masked = _MaskedMesh(network_id=2)
    reference = _ExhaustiveMesh(network_id=2)
    meshes = (masked, reference)
    sent: tuple[list, list] = ([], [])

    def step_both():
        for mesh in meshes:
            mesh.step()
        assert _mesh_state(masked) == _mesh_state(reference)

    for src, dst, payloads, gap in traffic:
        for mesh, packets in zip(meshes, sent):
            packet = Packet.build(dst, payloads)
            mesh.inject(packet, src)
            packets.append(packet)
        for _ in range(gap):
            step_both()
    for _ in range(20_000):
        if not (masked.in_flight or reference.in_flight):
            break
        step_both()
    assert masked.in_flight == reference.in_flight == 0
    assert [p.delivered_at for p in sent[0]] == [
        p.delivered_at for p in sent[1]
    ]
