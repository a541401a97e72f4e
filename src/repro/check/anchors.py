"""The paper-anchor table: each published number the reproduction
targets, and how far a quick run may sit from it.

A row pairs a ``paper_reference`` entry of one experiment with the
number its quick document reports for it. ``repro verify`` fails an
experiment with a row out of tolerance, and ``--update`` then writes
no golden for it. Bounds the shape tests held keep their values; the
other rows start at their deviation plus 5 points, rounded up to 0.1.
Full runs, which miss the paper by other amounts, are not anchored.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Mapping, NamedTuple


@dataclass(frozen=True)
class AnchorCheck:
    """One anchor's outcome."""

    name: str
    paper_value: float
    measured_value: float
    unit: str
    tolerance: float  # relative
    source: str = ""

    @property
    def deviation(self) -> float:
        return (self.measured_value - self.paper_value) / self.paper_value

    @property
    def within_tolerance(self) -> bool:
        return abs(self.deviation) <= self.tolerance

    def to_dict(self) -> dict[str, object]:
        return {**asdict(self), "deviation": self.deviation}


class Anchor(NamedTuple):
    """One row. ``name`` is the experiment and the path of its entry in
    ``paper_reference``; a row for a claim no entry holds types in its
    ``paper`` value. ``measured`` is a ``(series, index)`` pair, or reads
    the document itself."""

    name: str
    measured: tuple[str, int] | Callable[[Mapping], float]
    unit: str
    tolerance: float  # relative
    source: str  # the paper's table, figure or section
    paper: float | None = None

    def check(self, doc: Mapping) -> AnchorCheck:
        paper, m = self.paper, self.measured
        if paper is None:
            paper = doc["paper_reference"]
            for step in self.name.split("/")[1:]:
                paper = paper[int(step) if isinstance(paper, list) else step]
        try:
            value = float(m(doc) if callable(m) else doc["series"][m[0]][m[1]])
        except (KeyError, IndexError, StopIteration, TypeError, ValueError):
            value = math.nan  # a number the document lost fails its row
        return AnchorCheck(self.name, float(paper), value, self.unit,
                           self.tolerance, self.source)


def _cell(label: object, col: int, scale: float = 1.0):
    """Column ``col`` of the first row holding ``label``."""
    return lambda doc: scale * next(r for r in doc["rows"] if label in r)[col]


#: Table VII scenario -> the tolerances of its energy and its latency.
_TABLE7 = {"l1_hit": (0.15, 0.1), "l2_hit_local": (0.15, 0.056),
           "l2_hit_remote_4": (0.15, 0.086), "l2_hit_remote_8": (0.15, 0.063),
           "l2_miss_local": (0.876, 0.183)}
_TABLE9 = ("bzip2-chicken", "bzip2-source", "gcc-166", "gcc-200",
           "gobmk-13x13", "h264ref-foreman-baseline", "hmmer-nph3",
           "libquantum", "omnetpp", "perlbench-checkspam",
           "perlbench-diffmail", "sjeng", "xalancbmk")

ANCHORS: tuple[Anchor, ...] = (
    Anchor("fig8/chip_total_mm2", ("chip_total_mm2", 0), "mm2", 0.05, "Fig 8"),
    Anchor("fig8/tile_total_mm2", ("tile_total_mm2", 0), "mm2", 0.05, "Fig 8"),
    Anchor("fig8/core_total_mm2", ("core_total_mm2", 0), "mm2", 0.05, "Fig 8"),
    # The tile's "core" row comes before the core's own rows.
    Anchor("fig8/core_percent_of_tile", _cell("core", 2), "%", 0, "Fig 8"),
    Anchor("fig8/l2_percent_of_tile", _cell("l2_cache", 2), "%", 0, "Fig 8"),
    Anchor("fig9/0.8", _cell(0.8, 4), "MHz", 0.075, "Fig 9"),
    Anchor("fig9/0.9", _cell(0.9, 4), "MHz", 0.102, "Fig 9"),
    Anchor("fig9/1.0", _cell(1.0, 4), "MHz", 0.078, "Fig 9"),
    Anchor("fig9/1.1", _cell(1.1, 4), "MHz", 0.074, "Fig 9"),
    Anchor("fig9/1.2", _cell(1.2, 4), "MHz", 0.073, "Fig 9"),
    Anchor("fig10/static_mw", ("table5_static_mw", 0), "mW", 0.02, "Table V"),
    Anchor("fig10/idle_mw", ("table5_idle_mw", 0), "mW", 0.02, "Table V"),
    Anchor("fig11/ldx_random_pj", ("ldx", 1), "pJ", 0.10, "Fig 11"),
    Anchor("fig11/add_random_pj", ("add", 1), "pJ", 0.056, "Fig 11"),
    Anchor("fig11/three_adds_per_ldx",
           lambda doc: 3 * doc["series"]["add"][1] / doc["series"]["ldx"][1],
           "ratio", 0.15, "Sec IV-E", paper=1.0),
    Anchor("fig12/NSW", ("NSW_slope_pj", 0), "pJ/hop", 0.075, "Fig 12"),
    Anchor("fig12/HSW", ("HSW_slope_pj", 0), "pJ/hop", 0.2, "Fig 12"),
    Anchor("fig12/FSW", ("FSW_slope_pj", 0), "pJ/hop", 0.092, "Fig 12"),
    Anchor("fig12/FSWA", ("FSWA_slope_pj", 0), "pJ/hop", 0.061, "Fig 12"),
    *(Anchor(f"fig13/{k}", (k, 0), "mW/core", 0.35, "Fig 13") for k in (
        "Int_1tc_slope_mw", "Int_2tc_slope_mw", "HP_1tc_slope_mw",
        "HP_2tc_slope_mw", "Hist_1tc_slope_mw", "Hist_2tc_slope_mw")),
    Anchor("fig15/total_cycles", ("total_cycles", 0), "cycles", 0, "Fig 15"),
    Anchor("fig15/total_ns", _cell("nominal round trip", 4), "ns", 0.051,
           "Fig 15"),
    Anchor("fig18/delta_mean_temp_c", ("delta_mean_temp_c", 0), "C", 5.299,
           "Fig 18"),
    *(Anchor(f"table4/{key}", _cell(symptom, 4, 0.01), "share", tol,
             "Table IV") for key, symptom, tol in (
        ("good", "Stable operation", 0.051),
        ("unstable_deterministic", "Consistently fails deterministically",
         0.052),
        ("bad_vcs_short", "High VCS current draw", 0.05),
        ("bad_vdd_short", "High VDD current draw", 0.058),
        ("unstable_nondeterministic",
         "Consistently fails nondeterministically", 0.058))),
    *(Anchor(f"table7/{key}/{f}", (key, i), unit, tols[i], "Table VII")
      for key, tols in _TABLE7.items()
      for i, f, unit in ((0, "energy_nj", "nJ"), (1, "latency", "cycles"))),
    Anchor("table8/piton_memory_latency_ns", ("piton_memory_latency_ns", 0),
           "ns", 0.02, "Table VIII"),
    Anchor("table8/piton_l2_latency_ns/0", ("piton_l2_latency_ns", 0), "ns",
           0.05, "Table VIII"),
    Anchor("table8/piton_l2_latency_ns/1", ("piton_l2_latency_ns", 1), "ns",
           0.088, "Table VIII"),
    *(Anchor(f"table9/{bench}/t1_min", _cell(bench, 1), "min", 0.05,
             "Table IX") for bench in _TABLE9),
    # Energy 8%: the paper's perlbench-diffmail row prints 22.32 kJ for
    # 2.141 W x 184.37 min = 23.68 kJ; the model keeps power x time.
    *(Anchor(f"table9/{bench}/{field}", (bench, i), unit, tol, "Table IX")
      for bench in _TABLE9 for i, (field, unit, tol) in enumerate((
          ("piton_min", "min", 0.02), ("slowdown", "x", 0.02),
          ("power_w", "W", 0.03), ("energy_kj", "kJ", 0.08)))),
)

#: ``paper_reference`` entries with no row, by name prefix, and why.
LEFT_OUT = {
    **dict.fromkeys(("fig9/0.85", "fig9/0.95", "fig9/1.05", "fig9/1.15"),
                    "the quick run sweeps whole tenths of a volt only"),
    "fig14": "booleans (which of MT and MC wins), held by shape tests",
    "fig16": "each entry is a range a rail's trace spans, not one value",
    "fig17": "each entry is a range of the envelope, not one value",
    "table8/t2000_": "the T2000 column prints the paper's spec text",
    "table10": "names, not numbers",
}


def check_document(doc: Mapping) -> list[AnchorCheck]:
    """Every row of the document's experiment, checked against it."""
    prefix = f"{doc['experiment_id']}/"
    return [a.check(doc) for a in ANCHORS if a.name.startswith(prefix)]


def render_report(checks: list[AnchorCheck]) -> str:
    from repro.util.tables import render_table

    passed = sum(c.within_tolerance for c in checks)
    return render_table(
        ["anchor", "source", "paper", "measured", "unit", "deviation",
         "tolerance", "status"],
        [(c.name, c.source, f"{c.paper_value:g}", f"{c.measured_value:.6g}",
          c.unit, f"{100 * c.deviation:+.1f}%", f"{100 * c.tolerance:.1f}%",
          "ok" if c.within_tolerance else "OUT OF TOLERANCE") for c in checks],
        title=f"Paper anchors: {passed}/{len(checks)} within tolerance",
    )
