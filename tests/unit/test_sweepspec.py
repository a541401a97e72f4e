"""Unit tests for repro.sweepspec: the shared grid enumerators and
the JSON-round-trippable SweepSpec request document.

The grid helpers' enumeration *order* is load-bearing — measurements
replay serially in grid order and the goldens pin the historical
nested-loop order — so these tests assert exact sequences, not sets.
"""

from __future__ import annotations

import json

import pytest

from repro.sweepspec import (
    SWEEPSPEC_SCHEMA_VERSION,
    SpecError,
    SweepSpec,
    describe_spec,
    expand_grid,
    grid_product,
    linspace,
    load_spec,
)


# --------------------------------------------------------------- grid helpers
class TestGridProduct:
    def test_last_axis_fastest(self):
        cells = grid_product(a=(1, 2), b=("x", "y"))
        assert cells == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]

    def test_matches_nested_loop_order(self):
        """The lift contract: identical to `for a: for b: for c:`."""
        axes = {"a": (1, 2, 3), "b": (10, 20), "c": ("p", "q")}
        nested = [
            {"a": a, "b": b, "c": c}
            for a in axes["a"]
            for b in axes["b"]
            for c in axes["c"]
        ]
        assert grid_product(**axes) == nested

    def test_where_filters_preserving_order(self):
        cells = grid_product(
            where=lambda c: c["n"] % c["d"] == 0,
            n=(2, 3, 4),
            d=(1, 2),
        )
        assert cells == [
            {"n": 2, "d": 1},
            {"n": 2, "d": 2},
            {"n": 3, "d": 1},
            {"n": 4, "d": 1},
            {"n": 4, "d": 2},
        ]

    def test_no_axes_single_empty_cell(self):
        assert grid_product() == [{}]

    def test_empty_axis_empty_grid(self):
        assert grid_product(a=(), b=(1, 2)) == []


class TestExpandGrid:
    def test_inner_depends_on_outer(self):
        pairs = expand_grid(
            ("add", "nop"),
            lambda n: ("min", "max") if n == "add" else ("rnd",),
        )
        assert pairs == [
            ("add", "min"),
            ("add", "max"),
            ("nop", "rnd"),
        ]

    def test_consumes_generators_once(self):
        pairs = expand_grid((c for c in "ab"), lambda c: range(2))
        assert pairs == [("a", 0), ("a", 1), ("b", 0), ("b", 1)]


class TestLinspace:
    def test_inclusive_endpoints(self):
        values = linspace(0.9, 1.1, 3)
        assert values[0] == pytest.approx(0.9)
        assert values[-1] == pytest.approx(1.1)
        assert len(values) == 3

    def test_count_below_two_collapses_to_lo(self):
        # Historical CLI axis behavior; specs built from flags must
        # match old grids exactly.
        assert linspace(200.0, 850.0, 1) == (200.0,)
        assert linspace(200.0, 850.0, 0) == (200.0,)


# ------------------------------------------------------------------- the spec
class TestSweepSpecValidation:
    def test_unknown_workload_names_known_ones(self):
        with pytest.raises(SpecError) as exc:
            SweepSpec(workload="nope")
        assert exc.value.spec_field == "workload"
        assert "mem_l2" in (exc.value.hint or "")

    def test_unknown_persona_rejected(self):
        with pytest.raises(SpecError) as exc:
            SweepSpec(workload="mem_l2", personas=("chip9",))
        assert exc.value.spec_field == "personas"
        assert "chip9" in str(exc.value)

    def test_empty_personas_rejected(self):
        with pytest.raises(SpecError, match="no personas"):
            SweepSpec(workload="mem_l2", personas=())

    def test_non_numeric_axis_rejected(self):
        with pytest.raises(SpecError) as exc:
            SweepSpec(workload="mem_l2", vdd=(0.9, "high"))
        assert exc.value.spec_field == "vdd"
        assert "element 1" in str(exc.value)

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError, match="axis is empty"):
            SweepSpec(workload="mem_l2", freq_mhz=())

    def test_implausible_values_rejected_with_units_hint(self):
        with pytest.raises(SpecError, match="volts / MHz"):
            SweepSpec(workload="mem_l2", vdd=(5.0,))
        with pytest.raises(SpecError, match="plausible range"):
            SweepSpec(workload="mem_l2", freq_mhz=(1e6,))

    def test_non_finite_rejected(self):
        with pytest.raises(SpecError, match="not finite"):
            SweepSpec(workload="mem_l2", vdd=(float("nan"),))


class TestSweepSpecIdentity:
    def test_point_order_personas_vdd_freq(self):
        spec = SweepSpec(
            workload="mem_l2",
            personas=("chip1", "chip2"),
            vdd=(0.9, 1.0),
            freq_mhz=(200.0, 500.0),
        )
        points = spec.points()
        assert len(points) == spec.n_points == 8
        # Frequency is the fastest axis, personas the slowest.
        freqs = [p.freq_hz for p in points]
        assert freqs[:2] == [200e6, 500e6]
        vdds = [p.vdd for p in points]
        assert vdds[:4] == [0.9, 0.9, 1.0, 1.0]

    def test_digest_stable_and_field_sensitive(self):
        a = SweepSpec(workload="mem_l2", quick=True)
        b = SweepSpec(workload="mem_l2", quick=True)
        c = SweepSpec(workload="mem_l2", quick=False)
        assert a.digest() == b.digest()
        assert a.digest() != c.digest()
        assert len(a.digest()) == 64

    def test_experiment_id_matches_cli_journal_id(self):
        assert SweepSpec(workload="mem_l2").experiment_id == "sweep-mem_l2"


class TestSweepSpecSerialization:
    def test_round_trip(self):
        spec = SweepSpec(
            workload="mem_l2",
            personas=("chip3",),
            vdd=(0.95, 1.05),
            freq_mhz=(300.0,),
            quick=True,
        )
        restored = SweepSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.digest() == spec.digest()

    def test_missing_schema_version_rejected_with_hint(self):
        with pytest.raises(SpecError) as exc:
            SweepSpec.from_dict({"workload": "mem_l2"})
        assert exc.value.spec_field == "schema_version"
        assert str(SWEEPSPEC_SCHEMA_VERSION) in (exc.value.hint or "")

    def test_unsupported_version_rejected(self):
        with pytest.raises(SpecError, match="unsupported version"):
            SweepSpec.from_dict(
                {"schema_version": 99, "workload": "mem_l2"}
            )

    def test_unknown_field_named_with_allowed_list(self):
        with pytest.raises(SpecError) as exc:
            SweepSpec.from_dict(
                {
                    "schema_version": SWEEPSPEC_SCHEMA_VERSION,
                    "workload": "mem_l2",
                    "voltage": [0.9],
                }
            )
        assert exc.value.spec_field == "voltage"
        assert "freq_mhz" in (exc.value.hint or "")

    def test_missing_workload_rejected(self):
        with pytest.raises(SpecError, match="workload"):
            SweepSpec.from_dict(
                {"schema_version": SWEEPSPEC_SCHEMA_VERSION}
            )

    def test_bare_string_persona_promoted(self):
        spec = SweepSpec.from_dict(
            {
                "schema_version": SWEEPSPEC_SCHEMA_VERSION,
                "workload": "mem_l2",
                "personas": "chip1",
            }
        )
        assert spec.personas == ("chip1",)

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            SweepSpec.from_json("{nope")

    def test_non_object_document_rejected(self):
        with pytest.raises(SpecError, match="expected a JSON object"):
            SweepSpec.from_dict([1, 2])


class TestFromRanges:
    def test_matches_historical_cli_axes(self):
        spec = SweepSpec.from_ranges("mem_l2")
        assert spec.personas == ("chip2",)
        assert spec.vdd == pytest.approx((0.9, 1.0, 1.1))
        assert len(spec.freq_mhz) == 5
        assert spec.freq_mhz[0] == pytest.approx(200.0)
        assert spec.freq_mhz[-1] == pytest.approx(850.0)

    def test_single_point_axes(self):
        spec = SweepSpec.from_ranges(
            "mem_l2", vdd_points=1, freq_points=1
        )
        assert spec.n_points == 1


class TestLoadSpec:
    def test_loads_valid_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(SweepSpec(workload="mem_l2").to_json())
        assert load_spec(str(path)).workload == "mem_l2"

    def test_missing_file_is_spec_error(self, tmp_path):
        with pytest.raises(SpecError, match="no such spec file"):
            load_spec(str(tmp_path / "absent.json"))


class TestDescribeSpec:
    def test_mentions_the_load_bearing_facts(self):
        spec = SweepSpec(workload="mem_l2", quick=True)
        text = describe_spec(spec)
        assert "mem_l2" in text
        assert spec.digest() in text
        assert str(spec.n_points) in text
        assert spec.experiment_id in text
