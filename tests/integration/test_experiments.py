"""Integration tests: every experiment module runs (quick mode) and
reproduces the paper's *shape* claims."""

from __future__ import annotations

import pytest

from repro.experiments import EXPERIMENTS, RunContext, get_experiment


@pytest.mark.parametrize("experiment_id", sorted(EXPERIMENTS))
def test_every_experiment_runs_and_renders(experiment_id):
    if experiment_id in ("fig11", "fig13", "fig14", "table7"):
        pytest.skip("covered by dedicated shape tests (slow)")
    result = get_experiment(experiment_id)(RunContext(quick=True))
    assert result.rows
    text = result.render()
    assert experiment_id in text


def test_registry_rejects_unknown():
    with pytest.raises(KeyError, match="unknown experiment"):
        get_experiment("fig99")


def test_legacy_kwarg_style_rejected():
    """The pre-RunContext call style completed its deprecation cycle:
    it now raises a TypeError that names the replacement."""
    runner = get_experiment("fig8")
    with pytest.raises(TypeError, match="RunContext"):
        runner(quick=True)


class TestTable4Shape:
    def test_buckets_sum(self):
        result = get_experiment("table4")(RunContext(quick=True))
        counts = [row[3] for row in result.rows]
        assert sum(counts) == 32
        # Good chips are the majority, as in the paper.
        assert counts[0] > 16


class TestFig8Shape:
    def test_core_dominates_tile(self):
        result = get_experiment("fig8")(RunContext(quick=True))
        rows = {(r[0], r[1]): r[2] for r in result.rows}
        # The core and L2 shares are anchor rows (repro.check.anchors).
        # NoC routers are a small fraction: the area context for the
        # paper's "NoC energy is small" claim.
        noc_total = sum(
            rows[("tile", f"noc{i}_router")] for i in (1, 2, 3)
        )
        assert noc_total < 3.0


class TestFig9Shape:
    def test_curves(self):
        result = get_experiment("fig9")(RunContext())
        chip1 = result.series["chip1"]
        chip2 = result.series["chip2"]
        vdds = [row[0] for row in result.rows]
        # Chip 1 fastest at the low end.
        low = vdds.index(0.85)
        assert chip1[low] > chip2[low]
        # Chip 1 droops at 1.2V below its 1.15V point.
        high = vdds.index(1.20)
        prev = vdds.index(1.15)
        assert chip1[high] < chip1[prev]
        # Monotonic rise for chip 2 until at least 1.15V.
        assert chip2[: prev + 1] == sorted(chip2[: prev + 1])

    def test_min_curve_tracks_paper_band(self):
        result = get_experiment("fig9")(RunContext())
        for row in result.rows:
            vdd, minimum, paper = row[0], row[4], row[5]
            assert minimum == pytest.approx(paper, rel=0.15), vdd


class TestFig10Shape:
    def test_monotonic_and_split(self):
        result = get_experiment("fig10")(RunContext(quick=True))
        idle = result.series["idle_total_mw"]
        static = result.series["static_total_mw"]
        assert idle == sorted(idle)
        assert static == sorted(static)
        # SRAM dynamic is a thin sliver of idle power.
        sram_dyn = result.series["sram_dynamic_mw"]
        core_dyn = result.series["core_dynamic_mw"]
        assert all(s < 0.15 * c for s, c in zip(sram_dyn, core_dyn))

    def test_table5_anchors(self, missed_anchors):
        result = get_experiment("fig10")(RunContext(quick=True))
        assert missed_anchors(result) == []


class TestFig15Shape:
    def test_total_and_simulation_agree(self):
        result = get_experiment("fig15")(RunContext(quick=True))
        total = result.series["total_cycles"][0]
        simulated = result.series["simulated_cycles"][0]
        assert simulated == pytest.approx(total, rel=0.15)

    def test_gateway_dominates_offchip(self):
        """The paper's point: FPGA buffering, not DRAM, eats the trip."""
        result = get_experiment("fig15")(RunContext(quick=True))
        by_component: dict[str, int] = {}
        for row in result.rows:
            if row[0] == "TOTAL":
                continue
            by_component[row[0]] = by_component.get(row[0], 0) + row[3]
        assert by_component["gateway FPGA"] > 90


class TestFig16Shape:
    def test_rail_ranges(self):
        result = get_experiment("fig16")(RunContext(quick=True))
        rows = {r[0]: r for r in result.rows}
        vdd_mean = rows["Core (VDD)"][1]
        vcs_mean = rows["SRAM (VCS)"][1]
        assert 1700 < vdd_mean < 1850
        assert 250 < vcs_mean < 300
        # I/O bursts visible: max well above mean.
        io = rows["I/O (VIO)"]
        assert io[3] > 3 * io[1]


class TestFig17Shape:
    def test_exponential_and_ordered(self):
        result = get_experiment("fig17")(RunContext(quick=True))
        # Power rises with temperature within each thread count.
        for threads in (0, 20, 40):
            powers = result.series[f"{threads}_threads_power_mw"]
            assert powers == sorted(powers)
        # And rises with thread count at fixed cooling.
        p0 = result.series["0_threads_power_mw"][0]
        p40 = result.series["40_threads_power_mw"][0]
        assert p40 > p0 + 50


class TestFig18Shape:
    def test_interleaved_cooler_smaller_swing(self):
        result = get_experiment("fig18")(RunContext(quick=True))
        rows = {r[0]: r for r in result.rows}
        sync, inter = rows["synchronized"], rows["interleaved"]
        assert inter[3] < sync[3]  # cooler on average
        assert inter[2] < 0.3 * sync[2]  # much smaller power swing
        assert inter[4] <= sync[4]  # smaller hysteresis loop


class TestTable8Shape:
    def test_derived_latencies(self):
        result = get_experiment("table8")(RunContext(quick=True))
        # The model's own remote L2 latency; the anchor table holds the
        # published 108 ns.
        remote = result.series["piton_l2_latency_ns"][1]
        assert remote == pytest.approx(104, rel=0.08)


class TestTable9Shape:
    def test_times_and_power(self, missed_anchors):
        result = get_experiment("table9")(RunContext(quick=True))
        assert missed_anchors(result) == []

    def test_hmmer_highest_power(self):
        result = get_experiment("table9")(RunContext(quick=True))
        powers = {row[0]: row[4] for row in result.rows}
        assert max(powers, key=powers.get) == "hmmer-nph3"


class TestTable10Shape:
    def test_piton_unique(self):
        result = get_experiment("table10")(RunContext(quick=True))
        assert result.series["open_and_characterized_count"] == [1.0]
