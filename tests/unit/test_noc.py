"""Unit tests for repro.noc: flits, routing, mesh timing/energy, MITTS."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.arch.params import PitonConfig
from repro.check import CheckSuite, inject_fault
from repro.noc.flit import (
    Flit,
    Packet,
    coupling_factor,
    make_invalidation_packet,
    switching_bits,
)
from repro.noc.mesh import MeshNetwork
from repro.noc.mitts import MittsBin, MittsShaper
from repro.noc.router import Port, Router, is_turn
from repro.util.events import EventLedger
from repro.workloads.noc_tests import payload_words, run_noc_stream

ONES = (1 << 64) - 1
AAAA = 0xAAAAAAAAAAAAAAAA
FIVES = 0x5555555555555555


class TestFlit:
    def test_head_needs_dest(self):
        with pytest.raises(ValueError):
            Flit(payload=0, is_head=True)

    def test_payload_bounds(self):
        with pytest.raises(ValueError):
            Flit(payload=1 << 64)
        with pytest.raises(ValueError):
            Flit(payload=-1)

    def test_equal_and_hashed_by_value(self):
        head = Flit(payload=7, is_head=True, dest=3)
        twin = Flit(7, True, False, 3)
        assert head == twin and head is not twin
        assert hash(head) == hash(twin)
        assert len({head, twin, Flit(7, True, True, 3)}) == 2
        assert head != Flit(payload=7, is_head=True, dest=4)
        assert head != (7, True, False, 3)
        assert repr(head) == (
            "Flit(payload=7, is_head=True, is_tail=False, dest=3)"
        )

    def test_packet_build(self):
        p = Packet.build(dest=7, payloads=[1, 2, 3])
        assert len(p) == 4
        assert p.flits[0].is_head and p.flits[0].dest == 7
        assert p.flits[-1].is_tail

    def test_header_only_packet(self):
        p = Packet.build(dest=3, payloads=[])
        assert len(p) == 1
        assert p.flits[0].is_head and p.flits[0].is_tail

    def test_invalidation_packet_shape(self):
        p = make_invalidation_packet(9, [0] * 6)
        assert len(p) == 7  # 1 header + 6 payload, as in the paper
        with pytest.raises(ValueError):
            make_invalidation_packet(9, [0] * 5)

    def test_switching_bits(self):
        assert switching_bits(0, ONES) == 64
        assert switching_bits(5, 5) == 0

    def test_coupling_fswa_is_max(self):
        assert coupling_factor(AAAA, FIVES) == pytest.approx(1.0)

    def test_coupling_fsw_is_zero(self):
        assert coupling_factor(ONES, 0) == 0.0
        assert coupling_factor(0, ONES) == 0.0

    def test_coupling_no_switching(self):
        assert coupling_factor(123, 123) == 0.0


class TestRouterRouting:
    def test_route_port_xy(self):
        r = Router(tile_id=12, x=2, y=2)
        assert r.route_port(4, 2) is Port.EAST
        assert r.route_port(0, 0) is Port.WEST  # X before Y
        assert r.route_port(2, 4) is Port.SOUTH
        assert r.route_port(2, 0) is Port.NORTH
        assert r.route_port(2, 2) is Port.LOCAL

    def test_is_turn(self):
        assert is_turn(Port.EAST, Port.SOUTH)
        assert not is_turn(Port.EAST, Port.WEST)
        assert not is_turn(Port.LOCAL, Port.EAST)

    def test_queue_capacity(self):
        """The mesh's credit check: a downstream input holding
        ``INPUT_QUEUE_DEPTH`` flits gets no flit that cycle."""
        mesh = MeshNetwork()
        mesh.inject(Packet.build(2, list(range(1, 11))), 0)  # 11 flits
        mesh.run(2)  # the head is through router 1
        wedged = mesh.routers[1]
        for ip in wedged.inputs.values():
            ip.stall_until = 1 << 30
        west = wedged.inputs[Port.WEST].queue
        upstream = mesh.routers[0]
        full_cycles = 0
        for _ in range(12):
            full = len(west) == Router.INPUT_QUEUE_DEPTH
            routed = upstream.flits_routed
            mesh.step()
            assert len(west) <= Router.INPUT_QUEUE_DEPTH
            if full:
                full_cycles += 1
                assert upstream.flits_routed == routed
        assert full_cycles >= 8


class TestMeshNetwork:
    def make(self):
        return MeshNetwork(PitonConfig(), EventLedger(), network_id=1)

    def deliver(self, mesh, dest, payloads=(1, 2)):
        packet = Packet.build(dest, list(payloads))
        mesh.inject(packet, 0)
        mesh.drain()
        return packet

    def test_delivery(self):
        mesh = self.make()
        packet = self.deliver(mesh, dest=24)
        assert packet.delivered_at is not None
        assert mesh.in_flight == 0

    def test_zero_hop_delivery(self):
        mesh = self.make()
        packet = self.deliver(mesh, dest=0)
        assert packet.latency is not None
        assert mesh.total_flit_hops == 0

    def test_hop_latency_linear(self):
        """One cycle per hop: latency grows ~1 cycle per extra hop."""
        latencies = {}
        for dest, hops in [(1, 1), (2, 2), (3, 3), (4, 4)]:
            mesh = self.make()
            packet = self.deliver(mesh, dest)
            latencies[hops] = packet.latency
        deltas = [
            latencies[h + 1] - latencies[h] for h in (1, 2, 3)
        ]
        assert all(d == 1 for d in deltas)

    def test_turn_costs_extra_cycle(self):
        straight = self.make()
        p_straight = self.deliver(straight, dest=2)  # 2 hops, no turn
        turned = self.make()
        p_turned = self.deliver(turned, dest=6)  # 2 hops with a turn
        assert p_turned.latency == p_straight.latency + 1

    def test_flit_hop_count(self):
        mesh = self.make()
        self.deliver(mesh, dest=4, payloads=[1, 2, 3])  # 4 flits x 4 hops
        assert mesh.total_flit_hops == 16
        assert mesh.ledger.count("noc1.flit_hop") == 16

    def test_switching_activity_recorded(self):
        mesh = self.make()
        packet = Packet.build(1, [ONES, 0, ONES, 0])
        mesh.inject(packet, 0)
        mesh.drain()
        # Full switching between consecutive payload flits.
        assert mesh.ledger.mean_activity("noc1.flit_hop") > 0.5

    def test_nsw_zero_wire_activity(self):
        mesh = self.make()
        # All-zero payloads to tile 1: only the header differs from 0.
        packet = Packet.build(1, [0, 0, 0, 0, 0, 0])
        mesh.inject(packet, 0)
        mesh.drain()
        assert mesh.ledger.mean_activity("noc1.flit_hop") < 0.05

    def test_multiple_packets_fifo_to_same_dest(self):
        mesh = self.make()
        p1 = Packet.build(5, [1])
        p2 = Packet.build(5, [2])
        mesh.inject(p1, 0)
        mesh.inject(p2, 0)
        mesh.drain()
        assert p1.delivered_at <= p2.delivered_at

    def test_wormhole_no_interleave(self):
        """Two packets from different sources to one destination must
        not interleave flits (wormhole locking)."""
        mesh = self.make()
        a = Packet.build(12, [1, 1, 1, 1])
        b = Packet.build(12, [2, 2, 2, 2])
        mesh.inject(a, 2)
        mesh.inject(b, 10)
        mesh.drain()
        assert len(mesh.delivered) == 2

    def test_drain_detects_stuck(self):
        mesh = self.make()
        with pytest.raises(RuntimeError):
            # Nothing injected, but force a bogus in-flight count by
            # injecting into a full queue scenario is hard; instead
            # check drain succeeds trivially.
            mesh.inject(Packet.build(1, [0]), 0)
            mesh.drain(max_cycles=1)

    def test_tail_marks_its_own_packet(self):
        """Two packets racing to one tile: each is delivered when its
        own tail lands, whatever order they were injected in."""
        mesh = self.make()
        far = Packet.build(24, [1] * 6)  # 8 hops from tile 0
        near = Packet.build(24, [2] * 2)  # 1 hop from tile 23
        mesh.inject(far, 0)
        mesh.inject(near, 23)
        mesh.drain()
        assert (far.latency, near.latency) == (16, 4)  # as sent alone
        assert mesh.delivered == [near, far]

    @staticmethod
    def _streaming_mesh():
        """Six FSW packets from tile 0 to tile 8, four cycles in."""
        mesh = MeshNetwork(PitonConfig())
        for k in range(6):
            mesh.inject(
                make_invalidation_packet(8, payload_words("FSW", k)), 0
            )
        mesh.run(4)
        return mesh

    def test_fault_free_drain_stops_when_last_tail_lands(self):
        mesh = self._streaming_mesh()
        mesh.drain()
        assert mesh.now == 52
        assert [p.delivered_at for p in mesh.delivered] == [
            12, 20, 28, 36, 44, 52
        ]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", ["dropped_flit", "duplicated_flit"])
    def test_unchecked_drain_raises_after_flit_fault(self, kind, seed):
        """Without a checker, a lost or duplicated flit never lets the
        conservation counters and the queues agree the mesh is empty:
        ``drain`` runs all of ``max_cycles`` and raises, even where the
        other flits all land."""
        mesh = self._streaming_mesh()
        inject_fault(kind, mesh=mesh, seed=seed)
        with pytest.raises(RuntimeError, match="failed to drain"):
            mesh.drain(max_cycles=1_000)
        assert mesh.now == 4 + 1_000


class TestMeshConstruction:
    """A router is built when a flit first reaches its tile; reading
    ``mesh.routers`` builds the rest."""

    @pytest.fixture
    def built(self, monkeypatch):
        """Tile of every ``Router`` built, in order."""
        MeshNetwork()  # the shape's route tables build their own once
        tiles = []
        init = Router.__init__

        def counted(router, tile_id, x, y):
            tiles.append(tile_id)
            init(router, tile_id, x, y)

        monkeypatch.setattr(Router, "__init__", counted)
        return tiles

    def test_fresh_mesh_builds_no_router(self, built):
        mesh = MeshNetwork()
        mesh.run(10)
        assert built == []

    @pytest.mark.parametrize(
        "hops, route",
        [(0, [0]), (8, [0, 1, 2, 3, 4, 9, 14, 19, 24])],
    )
    def test_stream_builds_the_routers_on_its_route(
        self, built, hops, route
    ):
        run = run_noc_stream("FSW", hops, packets=2)
        assert run.dest_tile == route[-1]
        assert built == route  # X then Y, each once

    @staticmethod
    def _state(router):
        return (
            router.tile_id, router.x, router.y, router.flits_routed,
            router.output_locked_by, router.rr_pointer,
            [
                (ip.locked_output, ip.stall_until, list(ip.queue))
                for ip in router.inputs.values()
            ],
        )

    def test_reading_routers_builds_every_tile_like_a_fresh_mesh(self):
        fresh = [self._state(r) for r in MeshNetwork().routers]
        assert fresh == [
            (t, t % 5, t // 5, 0, dict.fromkeys(Port), dict.fromkeys(Port, 0),
             [(None, -1, [])] * 5)
            for t in range(25)
        ]
        mesh = MeshNetwork()
        mesh.inject(Packet.build(24, [1, 2]), 0)
        mesh.drain()
        route = {0, 1, 2, 3, 4, 9, 14, 19, 24}
        assert len(mesh.routers) == 25
        for tile, router in enumerate(mesh.routers):
            if tile not in route:
                assert self._state(router) == fresh[tile]
                continue
            assert router.flits_routed == 3
            assert router.output_locked_by == fresh[tile][4]
            assert all(
                ip.locked_output is None and not ip.queue
                for ip in router.inputs.values()
            )


class TestMeshIdleWork:
    """The mesh does work only where flits are: pinned by counting
    ``_grant`` calls, not by timing them."""

    @pytest.fixture
    def grants(self, monkeypatch):
        """Every ``_grant`` call as ``(cycle, tile, router held a flit)``."""
        calls = []
        grant = MeshNetwork._grant

        def counted(mesh, router, out_port):
            holding = any(ip.queue for ip in router.inputs.values())
            calls.append((mesh.now, router.tile_id, holding))
            return grant(mesh, router, out_port)

        monkeypatch.setattr(MeshNetwork, "_grant", counted)
        return calls

    def test_stepped_empty_mesh_arbitrates_no_router(self, grants):
        mesh = MeshNetwork()
        mesh.run(300)
        mesh.drain()
        assert mesh.now == 300
        assert grants == []

    def test_stream_arbitrates_only_routers_holding_flits(self, grants):
        run = run_noc_stream("FSW", 8, packets=3)
        assert run.packets_delivered == 3
        assert grants, "a stream must arbitrate the routers on its path"
        assert all(holding for _, _, holding in grants)
        # A lone stream's flits at a router all ask for one output, so
        # each router arbitrates at most once a cycle: 192 calls, where
        # all five outputs of every busy router would make 960.
        per_router_cycle = Counter((now, tile) for now, tile, _ in grants)
        assert max(per_router_cycle.values()) == 1
        assert len(grants) == 192
        assert len({tile for _, tile, _ in grants}) == 9

    @pytest.mark.parametrize(
        "pattern, hops, packets, sweeps",
        [("FSW", 8, 3, 2), ("NSW", 0, 3, 2), ("FSWA", 4, 60, 44),
         ("HSW", 1, 1, 1)],
    )
    def test_checker_cadence_counts_idle_cycles(
        self, pattern, hops, packets, sweeps
    ):
        """Idle cycles still step the clock and the sweep cadence: one
        sweep per ``CHECK_INTERVAL`` cycles plus the one ``drain``
        ends with."""
        suite = CheckSuite()
        run_noc_stream(pattern, hops, packets, checker=suite)
        assert suite.counts["mesh"] == sweeps
        assert suite.violations == 0


class TestMitts:
    def test_unlimited_passthrough(self):
        shaper = MittsShaper.unlimited()
        assert shaper.release_time(5) == 5
        assert shaper.release_time(6) == 6

    def test_credit_consumption(self):
        shaper = MittsShaper(
            [MittsBin(0, 2)], epoch_cycles=100
        )
        assert shaper.release_time(0) == 0
        assert shaper.release_time(1) == 1
        # Credits exhausted: next request waits for the epoch refill.
        assert shaper.release_time(2) == 100

    def test_longer_gap_uses_longer_bin(self):
        shaper = MittsShaper(
            [MittsBin(0, 0), MittsBin(50, 5)], epoch_cycles=1000
        )
        # Short-gap request must age into the 50-cycle bin.
        t0 = shaper.release_time(0)
        assert t0 == 0  # first request has no prior gap: longest bin
        t1 = shaper.release_time(10)
        assert t1 >= 50

    def test_increasing_bins_required(self):
        with pytest.raises(ValueError):
            MittsShaper([MittsBin(10, 1), MittsBin(5, 1)])

    def test_empty_bins_rejected(self):
        with pytest.raises(ValueError):
            MittsShaper([])

    def test_stall_accounting(self):
        shaper = MittsShaper([MittsBin(0, 1)], epoch_cycles=50)
        shaper.release_time(0)
        shaper.release_time(1)  # stalls to 50
        assert shaper.stalled_cycles_total >= 49
        assert shaper.requests == 2
