"""Unit tests for repro.chip: chip bridge, DRAM, off-chip path, chipset."""

from __future__ import annotations

import pytest

from repro.arch.params import PitonConfig
from repro.chip.chipbridge import ChipBridge, FRAMING_EFFICIENCY
from repro.chip.chipset import Chipset, default_io_devices
from repro.chip.dram import DdrTimings, DramModel
from repro.chip.offchip import (
    FIG15_SEGMENTS,
    ONCHIP_MISS_OVERHEAD,
    OffChipPath,
    fig15_total_cycles,
)
from repro.util.events import EventLedger


class TestChipBridge:
    def test_raw_bandwidth(self):
        bridge = ChipBridge()
        assert bridge.link_bits_per_second == 32 * 180e6

    def test_paper_traffic_pattern(self):
        """At 500.05 MHz the bridge admits 7 flits per 47 cycles."""
        pattern = ChipBridge().traffic_pattern(500.05e6)
        assert (pattern.valid_flits, pattern.period_cycles) == (7, 47)

    def test_rate_scales_with_core_clock(self):
        bridge = ChipBridge()
        slow = bridge.inbound_flits_per_core_cycle(250e6)
        fast = bridge.inbound_flits_per_core_cycle(500e6)
        assert slow == pytest.approx(2 * fast)

    def test_transfer_records_beats(self):
        ledger = EventLedger()
        bridge = ChipBridge(ledger=ledger)
        bridge.transfer_flits(7)
        # 7 flits x 2 beats + framing overhead.
        assert ledger.count("io.beat") == pytest.approx(
            14 / FRAMING_EFFICIENCY, rel=1e-6
        )
        assert ledger.count("chipbridge.flit") == 7

    def test_negative_flits_rejected(self):
        with pytest.raises(ValueError):
            ChipBridge().transfer_flits(-1)


class TestDdrTimings:
    def test_effective_nanoseconds(self):
        """12 cycles at 800 MHz = 15 ns: exactly the T2000's DDR2
        timings, the paper's Table VIII point."""
        t = DdrTimings()
        assert t.cl * t.ns_per_cycle == pytest.approx(15.0)

    def test_burst_bytes(self):
        assert DdrTimings().burst_bytes() == 32  # 32-bit x BL8

    def test_row_miss_slower_than_hit(self):
        t = DdrTimings()
        assert t.row_miss_ns() > t.row_hit_ns()


class TestDramModel:
    def test_open_row_hit(self):
        dram = DramModel()
        done1 = dram.access_ns(0x0, 0.0)
        done2 = dram.access_ns(0x20, done1)  # same row
        assert dram.stats_row_hits == 1
        assert done2 - done1 < done1  # hit faster than cold miss

    def test_row_conflict(self):
        dram = DramModel(row_bytes=4096)
        dram.access_ns(0x0, 0.0)
        dram.access_ns(8 * 4096, 1000.0)  # same bank (8 banks), new row
        assert dram.stats_row_misses == 2

    def test_queueing(self):
        dram = DramModel()
        done1 = dram.access_ns(0x0, 0.0)
        # Second request arrives while channel busy: waits.
        done2 = dram.access_ns(1 << 20, 0.0)
        assert done2 > done1

    def test_line_access_two_bursts(self):
        """64B lines on a 32-bit bus need two bursts (Table VIII)."""
        dram = DramModel()
        dram.line_access_ns(0x0, 0.0, line_bytes=64)
        assert dram.stats_bursts == 2

    def test_refresh_interferes(self):
        dram = DramModel()
        before = dram.ledger.count("dram.refresh")
        dram.access_ns(0x0, 10_000.0)  # past tREFI
        assert dram.ledger.count("dram.refresh") == before + 1


class TestOffChipPath:
    def test_fig15_total_near_395(self):
        assert fig15_total_cycles() == 395

    def test_segments_have_both_directions(self):
        directions = {s.direction for s in FIG15_SEGMENTS}
        assert directions == {"request", "response", "both"}

    def test_onchip_overhead(self):
        # 28 + 17 tile-array cycles vs the 34-cycle hit path.
        assert ONCHIP_MISS_OVERHEAD == 11

    def test_call_returns_reasonable_cycles(self):
        path = OffChipPath()
        cycles = path(0x0, False, 0)
        # Within a sane band around (395 - 34) for a cold miss.
        assert 300 <= cycles <= 450

    def test_queueing_under_load(self):
        path = OffChipPath()
        first = path(0x0, False, 0)
        # Ten simultaneous misses pile up at the channel.
        last = max(path((1 + i) << 20, False, 0) for i in range(10))
        assert last > first

    def test_records_io_beats(self):
        ledger = EventLedger()
        path = OffChipPath(ledger=ledger)
        path(0x0, False, 0)
        assert ledger.count("io.beat") > 0
        assert ledger.count("chipset.request") == 1

    def test_core_clock_validation(self):
        with pytest.raises(ValueError):
            OffChipPath().set_core_clock(0)


class TestChipset:
    def test_io_devices(self):
        devices = default_io_devices()
        assert devices["uart"].bandwidth_bytes_per_s == pytest.approx(
            11_520
        )
        assert devices["sd"].bandwidth_bytes_per_s == pytest.approx(2.5e6)

    def test_dram_size(self):
        assert Chipset().dram_bytes == 1 << 30

    def test_config_defaults(self):
        assert Chipset(PitonConfig()).config.tile_count == 25
