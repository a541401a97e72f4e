"""Unit tests for the telemetry layer (repro.obs) and RunContext."""

from __future__ import annotations

import time

import pytest

from repro.experiments.context import RunContext, experiment_runner
from repro.experiments.result import ExperimentResult
from repro.obs import (
    MANIFEST_SCHEMA_VERSION,
    NULL_TRACER,
    RunManifest,
    SpanStats,
    Tracer,
    build_manifest,
    component_of,
    component_rates,
)


class TestSpanStats:
    def test_accumulates(self):
        stats = SpanStats()
        stats.add(0.5)
        stats.add(1.5)
        assert stats.count == 2
        assert stats.total_s == pytest.approx(2.0)
        assert stats.max_s == pytest.approx(1.5)

    def test_as_dict(self):
        stats = SpanStats()
        stats.add(0.25)
        d = stats.as_dict()
        assert d["count"] == 1
        assert d["total_s"] == pytest.approx(0.25)


class TestTracer:
    def test_span_context_manager_records_time(self):
        tracer = Tracer()
        with tracer.span("work"):
            time.sleep(0.005)
        assert tracer.spans["work"].count == 1
        assert tracer.spans["work"].total_s > 0.0

    def test_nested_distinct_spans(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert set(tracer.spans) == {"outer", "inner"}

    def test_add_span_and_total(self):
        tracer = Tracer()
        tracer.add_span("simulate", 0.3)
        tracer.add_span("simulate", 0.7)
        assert tracer.span_total_s("simulate") == pytest.approx(1.0)
        assert tracer.span_total_s("absent") == 0.0

    def test_points_and_notes(self):
        tracer = Tracer()
        tracer.point(0.1)
        tracer.point(0.2)
        tracer.note("persona", "chip2")
        assert tracer.point_wall_s == pytest.approx([0.1, 0.2])
        assert tracer.meta["persona"] == "chip2"

    def test_observe_ledger_accumulates_counts(self):
        class FakeLedger:
            counts = {"l2.read": 10, "noc1.flit_hop": 4}

            def items(self):
                return self.counts.items()

        tracer = Tracer()
        tracer.observe_ledger(FakeLedger(), cycles=100)
        tracer.observe_ledger(FakeLedger(), cycles=50)
        assert tracer.event_counts["l2.read"] == 20
        assert tracer.sim_cycles == 150


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("anything"):
            pass
        NULL_TRACER.add_span("x", 1.0)
        NULL_TRACER.point(1.0)
        NULL_TRACER.note("k", "v")
        assert NULL_TRACER.spans == {}
        assert NULL_TRACER.point_wall_s == []
        assert NULL_TRACER.meta == {}

    def test_shared_singleton_via_context(self):
        ctx = RunContext()
        assert ctx.trace is NULL_TRACER


class TestComponentClassification:
    @pytest.mark.parametrize(
        "event,component",
        [
            ("core.issue", "core"),
            ("l1d.read_hit", "core"),
            ("l15.miss", "l15"),
            ("l2.read", "l2"),
            ("dir.lookup", "l2"),
            ("noc2.flit_hop", "noc"),
            ("mitts.throttle", "noc"),
            ("dram.activate", "dram"),
            ("mem.read", "dram"),
            ("chipbridge.flit", "io"),
            ("mystery.event", "other"),
        ],
    )
    def test_component_of(self, event, component):
        assert component_of(event) == component

    def test_rates_per_cycle_and_wall(self):
        rates = component_rates(
            {"l2.read": 50, "l2.write": 50}, sim_cycles=1000, wall_s=2.0
        )
        assert rates["l2"]["events"] == 100
        assert rates["l2"]["per_cycle"] == pytest.approx(0.1)
        assert rates["l2"]["per_wall_s"] == pytest.approx(50.0)

    def test_zero_denominators_safe(self):
        rates = component_rates({"l2.read": 5}, sim_cycles=0, wall_s=0.0)
        assert rates["l2"]["per_cycle"] == 0.0
        assert rates["l2"]["per_wall_s"] == 0.0


class TestRunManifest:
    def make(self):
        tracer = Tracer()
        tracer.note("persona", "chip2")
        tracer.note("interleave", "LOW")
        tracer.note("operating_point", {"freq_mhz": 500.0})
        tracer.add_span("simulate", 1.0)
        tracer.point(0.5)
        tracer.point(0.5)
        tracer.observe_ledger(
            type("L", (), {"counts": {"l2.read": 10}})(), cycles=100
        )
        ctx = RunContext(quick=True, jobs=2, tracer=tracer)
        return build_manifest("figX", ctx, tracer, wall_s_total=2.0)

    def test_build_manifest_fields(self):
        manifest = self.make()
        assert manifest.experiment_id == "figX"
        assert manifest.quick is True
        assert manifest.jobs == 2
        assert manifest.persona == "chip2"
        assert manifest.interleave == "LOW"
        assert manifest.points == 2
        assert manifest.wall_s_total == pytest.approx(2.0)
        assert "simulate" in manifest.spans
        assert manifest.event_rates["l2"]["events"] == 10

    def test_round_trip(self):
        manifest = self.make()
        restored = RunManifest.from_dict(manifest.to_dict())
        assert restored == manifest

    def test_to_dict_versioned(self):
        d = self.make().to_dict()
        assert d["schema_version"] == MANIFEST_SCHEMA_VERSION

    def test_bad_version_rejected(self):
        d = self.make().to_dict()
        d["schema_version"] = 999
        with pytest.raises(ValueError, match="schema_version"):
            RunManifest.from_dict(d)

    def test_summary_mentions_spans(self):
        text = self.make().summary()
        assert "simulate" in text
        assert "figX" in text


class TestRunContext:
    def test_defaults(self):
        ctx = RunContext()
        assert ctx.quick is False
        assert ctx.jobs == 1
        assert ctx.out_format == "table"

    def test_validation(self):
        with pytest.raises(ValueError):
            RunContext(jobs=-1)
        with pytest.raises(ValueError):
            RunContext(out_format="xml")
        # 0 is not invalid anymore: it means "auto" (one per CPU).
        assert RunContext(jobs=0).jobs >= 1

    def test_resolve_persona_prefers_explicit(self):
        sentinel = object()
        assert RunContext().resolve_persona(sentinel) is sentinel
        override = object()
        ctx = RunContext(persona=override)
        assert ctx.resolve_persona(sentinel) is override


@experiment_runner
def _demo_runner(ctx: RunContext, scale: int = 3) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="demo", title="demo", headers=["k", "v"]
    )
    result.rows.append(("quick", ctx.quick))
    result.rows.append(("scale", scale))
    return result


class TestExperimentRunnerDecorator:
    def test_context_style(self):
        result = _demo_runner(RunContext(quick=True))
        assert ("quick", True) in result.rows

    def test_manifest_attached(self):
        result = _demo_runner(RunContext(tracer=Tracer()))
        assert result.manifest is not None
        assert result.manifest.experiment_id == "demo"
        assert "experiment" in result.manifest.spans

    def test_no_tracer_still_gets_manifest(self):
        result = _demo_runner(RunContext())
        assert result.manifest is not None
        assert result.manifest.points == 0

    def test_legacy_kwargs_rejected_with_hint(self):
        with pytest.raises(TypeError, match="RunContext"):
            _demo_runner(quick=True)

    def test_legacy_positional_bool_rejected(self):
        with pytest.raises(TypeError, match="RunContext"):
            _demo_runner(True)

    def test_mixing_styles_rejected(self):
        with pytest.raises(TypeError):
            _demo_runner(RunContext(), quick=True)

    def test_extras_pass_through(self):
        result = _demo_runner(RunContext(), scale=7)
        assert ("scale", 7) in result.rows

    def test_wrapped_runner_exposed(self):
        assert callable(_demo_runner.__wrapped_runner__)
