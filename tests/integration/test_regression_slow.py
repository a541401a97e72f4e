"""Slow regression tests pinning the simulation-heavy experiments
(EPI, memory energy, scaling, MT-vs-MC) to the paper's shapes.

These run the experiments in quick mode (smaller sweeps, fewer cores)
but still exercise the full simulate -> measure -> methodology
pipeline. Marked slow; run by default, deselect with `-m "not slow"`.
"""

from __future__ import annotations

import pytest

pytestmark = pytest.mark.slow


# Each reads the one shared quick run of its experiment (see
# ``quick_result`` in tests/conftest.py), shared with the golden diffs.
@pytest.fixture(scope="module")
def fig11(quick_result):
    return quick_result("fig11")


@pytest.fixture(scope="module")
def table7(quick_result):
    return quick_result("table7")


@pytest.fixture(scope="module")
def fig13(quick_result):
    return quick_result("fig13")


@pytest.fixture(scope="module")
def fig14(quick_result):
    return quick_result("fig14")


class TestFig11Shapes:
    def test_operand_values_move_epi(self, fig11):
        """min < random < max for every swept instruction."""
        for label, values in fig11.series.items():
            if len(values) == 3:
                low, mid, high = values
                assert low < mid < high, label

    def test_epi_grows_with_latency_within_class(self, fig11):
        rows = fig11.row_dict()
        rnd = {name: rows[name][3] for name in rows}
        assert rnd["and"] < rnd["add"] < rnd["mulx"] < rnd["sdivx"]
        assert rnd["faddd"] < rnd["fmuld"] < rnd["fdivd"]
        assert rnd["fdivs"] < rnd["fdivd"]

    def test_three_adds_equal_one_ldx(self, fig11, missed_anchors):
        """The paper's recompute-vs-load insight."""
        assert missed_anchors(fig11, "fig11/three_adds_per_ldx") == []

    def test_ldx_anchor(self, fig11, missed_anchors):
        assert missed_anchors(fig11, "fig11/ldx_random_pj") == []

    def test_store_buffer_rollback_costs_energy(self, fig11):
        rows = fig11.row_dict()
        assert rows["stx (F)"][3] > rows["stx (NF)"][3] + 30

    def test_nop_cheapest(self, fig11):
        rows = fig11.row_dict()
        nop = rows["nop"][3]
        for name, row in rows.items():
            if name != "nop":
                assert row[3] > nop, name

    def test_latencies_are_table6(self, fig11):
        rows = fig11.row_dict()
        assert rows["mulx"][1] == 11
        assert rows["sdivx"][1] == 72
        assert rows["fdivd"][1] == 79


class TestTable7Shapes:
    def test_hit_rows_match_paper(self, table7, missed_anchors):
        assert missed_anchors(table7) == []

    def test_remote_premium_small(self, table7):
        """The headline NoC insight: remote vs local L2 differs little
        next to the miss cost."""
        by_label = table7.row_dict()
        local = by_label["L1 miss, local L2 hit"][3]
        remote = by_label["L1 miss, remote L2 hit (8 hops)"][3]
        miss = by_label["L1 miss, local L2 miss"][3]
        assert remote - local < 1.0  # under 1 nJ for 8 hops
        assert miss > 5 * remote

    def test_latency_ordering(self, table7):
        by_label = table7.row_dict()
        intervals = [row[2] for row in by_label.values()]
        assert intervals == sorted(intervals)


class TestFig13Shapes:
    def test_linear_growth(self, fig13):
        for key in ("Int_1tc", "HP_1tc", "Int_2tc", "HP_2tc"):
            powers = fig13.series[key]
            deltas = [b - a for a, b in zip(powers, powers[1:])]
            assert all(d > 0 for d in deltas), key

    def test_slope_ordering(self, fig13):
        s = {k: v[0] for k, v in fig13.series.items() if "slope" in k}
        assert s["Hist_1tc_slope_mw"] < s["Int_1tc_slope_mw"]
        assert s["Int_1tc_slope_mw"] < s["HP_1tc_slope_mw"]
        assert s["Int_2tc_slope_mw"] > s["Int_1tc_slope_mw"]
        assert s["HP_2tc_slope_mw"] > s["HP_1tc_slope_mw"]

    def test_slopes_near_paper(self, fig13, missed_anchors):
        assert missed_anchors(fig13) == []

    def test_hist_2tc_flattens(self, fig13):
        """Hist 2 T/C marginal power shrinks at high core counts."""
        powers = fig13.series["Hist_2tc"]
        early = powers[1] - powers[0]
        late = powers[-1] - powers[-2]
        assert late < early

    def test_hp_peak_power(self, fig13):
        """HP on 50 threads is the highest observed power, ~3.5W."""
        peak = fig13.series["HP_2tc"][-1]
        assert peak == pytest.approx(3500, rel=0.15)


class TestFig14Shapes:
    @staticmethod
    def _ratios(fig14, bench):
        note = next(n for n in fig14.notes if n.startswith(bench))
        energy = float(note.split("energy ratio ")[1].split(",")[0])
        power = float(note.split("power ratio ")[1].split(" ")[0])
        return energy, power

    def test_mt_always_lower_power(self, fig14):
        for bench in ("Int", "HP", "Hist"):
            _, power_ratio = self._ratios(fig14, bench)
            assert power_ratio < 0.75, bench

    def test_int_mt_more_energy(self, fig14):
        energy_ratio, _ = self._ratios(fig14, "Int")
        assert energy_ratio > 1.0

    def test_hp_mt_energy_near_parity_or_above(self, fig14):
        # Paper: MT uses more energy for HP; our pipeline's slightly
        # higher MC bubble recovery leaves it at rough parity.
        energy_ratio, _ = self._ratios(fig14, "HP")
        assert energy_ratio > 0.85

    def test_hist_mt_much_more_efficient(self, fig14):
        energy_ratio, _ = self._ratios(fig14, "Hist")
        assert energy_ratio < 0.75
