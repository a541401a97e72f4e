"""Unit tests for repro.util: units, rng, stats, events, tables."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.util.events import EventLedger
from repro.util.rng import RngFactory
from repro.util.stats import Measurement, mean_std
from repro.util.tables import render_table
from repro.util.units import MHZ, MW, PJ, from_unit, to_unit


class TestUnits:
    def test_round_trip(self):
        assert to_unit(from_unit(389.3, "mW"), "mW") == pytest.approx(389.3)

    def test_constants(self):
        assert from_unit(1.0, "MHz") == MHZ
        assert from_unit(1.0, "mW") == MW
        assert from_unit(1.0, "pJ") == PJ

    def test_mhz(self):
        assert from_unit(500.05, "MHz") == pytest.approx(500.05e6)

    def test_unknown_unit_raises(self):
        with pytest.raises(ValueError, match="unknown unit"):
            to_unit(1.0, "furlongs")
        with pytest.raises(ValueError, match="unknown unit"):
            from_unit(1.0, "parsec")


class TestRngFactory:
    def test_same_seed_same_stream(self):
        a = RngFactory(7).stream("x").normal(size=5)
        b = RngFactory(7).stream("x").normal(size=5)
        assert np.array_equal(a, b)

    def test_different_names_independent(self):
        rngs = RngFactory(7)
        a = rngs.stream("a").normal(size=5)
        b = rngs.stream("b").normal(size=5)
        assert not np.array_equal(a, b)

    def test_stream_is_cached(self):
        rngs = RngFactory(0)
        assert rngs.stream("x") is rngs.stream("x")

    def test_fresh_resets_position(self):
        rngs = RngFactory(0)
        first = rngs.fresh("x").normal()
        rngs.fresh("x").normal()
        assert rngs.fresh("x").normal() == first

    def test_child_differs_from_parent(self):
        parent = RngFactory(3)
        child = parent.child("sub")
        assert parent.stream("x").normal() != child.stream("x").normal()


class TestMeasurement:
    def test_from_samples(self):
        m = Measurement.from_samples([1.0, 2.0, 3.0])
        assert m.value == pytest.approx(2.0)
        assert m.sigma == pytest.approx(np.std([1, 2, 3]))

    def test_mean_std_empty_raises(self):
        with pytest.raises(ValueError):
            mean_std([])

    def test_subtraction_propagates_error(self):
        a = Measurement(10.0, 3.0)
        b = Measurement(4.0, 4.0)
        d = a - b
        assert d.value == pytest.approx(6.0)
        assert d.sigma == pytest.approx(5.0)  # 3-4-5 triangle

    def test_scaling(self):
        m = Measurement(2.0, 0.5) * 4.0
        assert (m.value, m.sigma) == (8.0, 2.0)

    def test_division(self):
        m = Measurement(8.0, 2.0) / 4.0
        assert (m.value, m.sigma) == (2.0, 0.5)

    def test_add_scalar(self):
        m = Measurement(1.0, 0.1) + 2.0
        assert m.value == 3.0
        assert m.sigma == 0.1

    def test_format(self):
        assert Measurement(0.3893, 0.0015).format(1e-3, 1) == "389.3±1.5"

    def test_rsub(self):
        m = 10.0 - Measurement(4.0, 1.0)
        assert m.value == 6.0

    def test_neg(self):
        m = -Measurement(5.0, 1.0)
        assert m.value == -5.0
        assert m.sigma == 1.0


class TestEventLedger:
    def test_record_and_count(self, ledger):
        ledger.record("x", 3)
        ledger.record("x", 2)
        assert ledger.count("x") == 5

    def test_mean_activity(self, ledger):
        ledger.record("x", 1, activity=0.0)
        ledger.record("x", 1, activity=1.0)
        assert ledger.mean_activity("x") == pytest.approx(0.5)

    def test_default_activity(self, ledger):
        ledger.record("x")
        assert ledger.mean_activity("x") == EventLedger.DEFAULT_ACTIVITY

    def test_unrecorded_activity_default(self, ledger):
        assert ledger.mean_activity("never") == 0.5

    def test_negative_count_rejected(self, ledger):
        with pytest.raises(ValueError):
            ledger.record("x", -1)

    def test_activity_bounds(self, ledger):
        with pytest.raises(ValueError):
            ledger.record("x", 1, activity=1.5)

    def test_merge(self):
        a, b = EventLedger(), EventLedger()
        a.record("x", 2, activity=0.0)
        b.record("x", 2, activity=1.0)
        a.merge(b)
        assert a.count("x") == 4
        assert a.mean_activity("x") == pytest.approx(0.5)

    def test_scaled(self, ledger):
        ledger.record("x", 2, activity=0.25)
        doubled = ledger.scaled(2.0)
        assert doubled.count("x") == 4
        assert doubled.mean_activity("x") == pytest.approx(0.25)

    def test_scaled_negative_rejected(self, ledger):
        with pytest.raises(ValueError):
            ledger.scaled(-1.0)

    def test_clear(self, ledger):
        ledger.record("x")
        ledger.clear()
        assert ledger.count("x") == 0


class TestRenderTable:
    def test_basic(self):
        out = render_table(["a", "bb"], [[1, 2.5], ["xyz", 4]])
        lines = out.splitlines()
        assert lines[0].startswith("a")
        assert "xyz" in out

    def test_title(self):
        out = render_table(["a"], [[1]], title="T")
        assert out.splitlines()[0] == "T"

    def test_mismatched_row_raises(self):
        with pytest.raises(ValueError, match="cells"):
            render_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        out = render_table(["v"], [[math.pi]])
        assert "3.142" in out
