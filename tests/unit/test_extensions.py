"""Unit tests for the extension substrates: structural composition,
power reporting, CDR, multi-chip modelling, SRAM repair, and MITTS
integration into the memory path."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.params import PitonConfig
from repro.cache.cdr import CdrRegistry, CdrViolation, CoherenceDomain, Region
from repro.cache.system import CoherentMemorySystem, fixed_offchip_model
from repro.chip.chip import Chip
from repro.chip.multichip import (
    INTERCHIP_CROSSING_CYCLES,
    MultiChipTopology,
)
from repro.chip.tile import Tile
from repro.noc.mitts import MittsBin, MittsShaper
from repro.power.chip_power import OperatingPoint
from repro.power.report import PowerReport, block_of_event
from repro.silicon.sram_repair import (
    Defect,
    RepairFlow,
    SramArray,
    allocate_spares,
)
from repro.util.events import EventLedger


class TestStructuralComposition:
    def test_tile_blocks_cover_figure2b(self):
        tile = Tile(0)
        names = {b.name for b in tile.blocks}
        assert {
            "core", "l15", "l2_slice", "noc1_router", "noc2_router",
            "noc3_router", "fpu", "mitts", "ccx",
        } <= names

    def test_block_area_lookup(self):
        tile = Tile(0)
        with pytest.raises(KeyError):
            tile.block("gpu")

    def test_chip_summary(self):
        chip = Chip()
        summary = chip.summary()
        assert summary["tiles"] == 25
        assert summary["threads"] == 50
        assert summary["die_mm2"] == pytest.approx(36.0)

    def test_chip_tile_access(self):
        chip = Chip()
        assert chip.tile(24).tile_id == 24
        with pytest.raises(ValueError):
            chip.tile(25)


class TestPowerReport:
    def test_block_of_event(self):
        assert block_of_event("instr.fp_mul_d") == "fpu"
        assert block_of_event("instr.int_add") == "core"
        assert block_of_event("l2.read") == "l2+directory"
        assert block_of_event("noc2.flit_hop") == "noc2"
        assert block_of_event("weird.thing") == "other"

    def test_breakdown_sums_to_event_power(self):
        from repro.power.chip_power import ChipPowerModel

        ledger = EventLedger()
        ledger.record("instr.int_add", 1000)
        ledger.record("l2.read", 100)
        ledger.record("noc1.flit_hop", 300)
        ledger.record("io.beat", 10)
        op = OperatingPoint()
        report = PowerReport()
        blocks = report.active_breakdown(ledger, 1000, op)
        total = sum(b.active_w for b in blocks)
        expected = ChipPowerModel().event_power(ledger, 1000, op).total_w
        assert total == pytest.approx(expected, rel=1e-9)

    def test_render(self):
        ledger = EventLedger()
        ledger.record("instr.int_add", 100)
        text = PowerReport().render(ledger, 100, OperatingPoint())
        assert "core" in text and "active mW" in text


class TestCdr:
    def make(self):
        registry = CdrRegistry()
        tenant = registry.create_domain("tenant0", members=[0, 1, 2])
        registry.assign_region(tenant, 0x10000, 0x1000)
        return registry, tenant

    def test_member_allowed(self):
        registry, _ = self.make()
        registry.check(1, 0x10400)  # no raise

    def test_outsider_rejected(self):
        registry, _ = self.make()
        with pytest.raises(CdrViolation):
            registry.check(9, 0x10400)

    def test_unassigned_addresses_global(self):
        registry, _ = self.make()
        registry.check(24, 0x90000)  # global: fine

    def test_region_overlap_rejected(self):
        registry, tenant = self.make()
        with pytest.raises(ValueError, match="overlaps"):
            registry.assign_region(tenant, 0x10800, 0x1000)

    def test_region_validation(self):
        with pytest.raises(ValueError):
            Region(-1, 10)
        with pytest.raises(ValueError):
            Region(0, 0)

    def test_allowed_sharers(self):
        registry, _ = self.make()
        assert registry.allowed_sharers(0x10010, 25) == {0, 1, 2}
        assert registry.allowed_sharers(0x90000, 25) == set(range(25))

    def test_membership_mutation(self):
        domain = CoherenceDomain(0, "d")
        domain.admit(5)
        assert 5 in domain
        domain.evict_member(5)
        assert 5 not in domain

    def test_enforced_in_memory_system(self):
        registry = CdrRegistry()
        tenant = registry.create_domain("t", members=[0])
        registry.assign_region(tenant, 0x4000, 0x1000)
        ms = CoherentMemorySystem(
            PitonConfig(), offchip=fixed_offchip_model(50), cdr=registry
        )
        ms.load(0, 0x4100)  # member: fine
        with pytest.raises(CdrViolation):
            ms.load(3, 0x4100)
        with pytest.raises(CdrViolation):
            ms.store(3, 0x4100)
        with pytest.raises(CdrViolation):
            ms.atomic(3, 0x4100)
        ms.check_invariants()


class TestMultiChip:
    def test_socket_arithmetic(self):
        topo = MultiChipTopology(sockets_x=2, sockets_y=2)
        assert topo.socket_count == 4
        assert topo.total_tiles == 100
        assert topo.socket_of(30) == 1
        assert topo.local_tile(30) == 5
        assert topo.socket_hops(0, 3) == 2

    def test_on_socket_matches_single_chip(self):
        topo = MultiChipTopology()
        # Requester 0, home 4 on the same socket: the Table VII number.
        assert topo.l2_access_cycles(0, 4) == 42

    def test_cross_socket_premium(self):
        topo = MultiChipTopology()
        same = topo.l2_access_cycles(0, 4)
        cross = topo.l2_access_cycles(0, 25 + 4)
        assert cross >= same + 2 * INTERCHIP_CROSSING_CYCLES

    def test_premium_grows_with_socket_distance(self):
        topo = MultiChipTopology(sockets_x=4, sockets_y=1)
        near = topo.l2_access_cycles(0, 25 + 0)
        far = topo.l2_access_cycles(0, 75 + 0)
        assert far > near

    def test_cross_socket_pad_energy(self):
        topo = MultiChipTopology()
        local = topo.l2_access_energy_events(0, 4)
        remote = topo.l2_access_energy_events(0, 25 + 4)
        assert local.count("io.beat") == 0
        assert remote.count("io.beat") > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiChipTopology(sockets_x=0)
        with pytest.raises(ValueError):
            MultiChipTopology().socket_of(999)


class TestSramRepair:
    def test_single_defect_repaired(self):
        array = SramArray("a", 64, 64, defects=[Defect(3, 7)])
        plan = allocate_spares(array)
        assert plan is not None and plan.covers(array.defects)

    def test_row_cluster_forces_row_replacement(self):
        defects = [Defect(5, c) for c in (1, 2, 3)]  # > 2 spare cols
        array = SramArray("a", 64, 64, defects=defects)
        plan = allocate_spares(array)
        assert plan is not None
        assert 5 in plan.replaced_rows

    def test_unrepairable(self):
        # Three rows each forcing row replacement, but only 2 spares.
        defects = [
            Defect(r, c) for r in (1, 2, 3) for c in (0, 1, 2)
        ]
        array = SramArray("a", 64, 64, defects=defects)
        assert allocate_spares(array) is None

    def test_plan_minimal_for_diagonal(self):
        # Two defects on a diagonal: 2 columns (or 2 rows) suffice.
        array = SramArray(
            "a", 64, 64, defects=[Defect(1, 1), Defect(2, 2)]
        )
        plan = allocate_spares(array)
        assert (
            len(plan.replaced_rows) + len(plan.replaced_cols) == 2
        )

    def test_no_defects_trivial(self):
        plan = allocate_spares(SramArray("a", 8, 8))
        assert plan.covers([])
        assert not plan.replaced_rows and not plan.replaced_cols

    def test_defect_bounds(self):
        with pytest.raises(ValueError):
            SramArray("a", 8, 8, defects=[Defect(9, 0)])

    def test_flow_over_die(self):
        rng = np.random.default_rng(0)
        outcome = RepairFlow().repair_random_die(rng, hard_defects=3)
        assert outcome.repaired
        assert outcome.arrays_repaired >= 1

    def test_flow_fails_on_blasted_die(self):
        rng = np.random.default_rng(1)
        outcome = RepairFlow().repair_random_die(
            rng, hard_defects=200, macros=1
        )
        assert not outcome.repaired


class TestMittsInMemorySystem:
    def test_shaped_tile_slower(self):
        def misses(shaped: bool) -> int:
            ms = CoherentMemorySystem(
                PitonConfig(), offchip=fixed_offchip_model(100)
            )
            if shaped:
                ms.set_mitts(
                    0,
                    MittsShaper(
                        [MittsBin(0, 0), MittsBin(500, 2)],
                        epoch_cycles=5_000,
                    ),
                )
            now = 0
            total = 0
            for i in range(10):
                out = ms.load(0, i * 1 << 20, now=now)
                now += out.latency
                total = now
            return total

        assert misses(shaped=True) > misses(shaped=False)

    def test_set_mitts_validation(self):
        ms = CoherentMemorySystem(PitonConfig())
        with pytest.raises(ValueError):
            ms.set_mitts(99, MittsShaper.unlimited())

    def test_stall_events_recorded(self):
        ms = CoherentMemorySystem(
            PitonConfig(), offchip=fixed_offchip_model(100)
        )
        ms.set_mitts(
            0,
            MittsShaper(
                [MittsBin(0, 0), MittsBin(800, 1)], epoch_cycles=8_000
            ),
        )
        now = 0
        for i in range(4):
            out = ms.load(0, i * (1 << 20), now=now)
            now += out.latency
        assert ms.ledger.count("mitts.stall_cycle") > 0
