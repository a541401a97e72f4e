"""Unit tests for the repro.check subsystem, the result-schema guard,
and the rejection of the removed legacy runner call styles."""

from __future__ import annotations

import json

import pytest

from repro.cache.system import MemoryAccessOutcome
from repro.check import CheckError, CheckSuite, FAULT_KINDS, inject_fault
from repro.experiments import EXPERIMENTS, RunContext
from repro.experiments.result import (
    RESULT_SCHEMA_VERSION,
    ExperimentResult,
)


# --------------------------------------------------------------- CheckSuite
class TestCheckSuite:
    def test_check_error_names_its_checker(self):
        suite = CheckSuite()
        bad = MemoryAccessOutcome(latency=0, level="l1")
        with pytest.raises(CheckError) as exc:
            suite.check_access(bad)
        assert exc.value.checker == "access"
        assert "latency 0" in str(exc.value)
        assert suite.violations == 1

    def test_access_bounds(self):
        suite = CheckSuite()
        suite.check_access(MemoryAccessOutcome(latency=1, level="l1"))
        suite.check_access(
            MemoryAccessOutcome(latency=400, level="mem", hops=8)
        )
        assert suite.violations == 0
        with pytest.raises(CheckError):
            suite.check_access(
                MemoryAccessOutcome(
                    latency=suite.ACCESS_LATENCY_BOUND + 1, level="mem"
                )
            )
        with pytest.raises(CheckError, match="unknown access level"):
            suite.check_access(
                MemoryAccessOutcome(latency=10, level="l3")
            )
        with pytest.raises(CheckError, match="negative hop count"):
            suite.check_access(
                MemoryAccessOutcome(latency=10, level="l15", hops=-1)
            )

    def test_counters_and_merge(self):
        suite = CheckSuite()
        suite.check_access(MemoryAccessOutcome(latency=5, level="l1"))
        suite.check_access(MemoryAccessOutcome(latency=5, level="l1"))
        assert suite.summary() == {"access": 2}
        # Fold in counters shipped back from a measurement pool worker.
        suite.merge_counts({"access": 3, "directory": 7})
        assert suite.counts == {"access": 5, "directory": 7}
        # summary() is a snapshot, not a live view.
        snap = suite.summary()
        suite.merge_counts({"access": 1})
        assert snap["access"] == 5

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            inject_fault("cosmic_ray")
        for kind in FAULT_KINDS:
            with pytest.raises(ValueError, match="needs a"):
                inject_fault(kind)  # no target supplied


# ------------------------------------------------------------ result schema
class TestResultSchemaGuard:
    def _doc(self, **overrides):
        doc = {
            "schema_version": RESULT_SCHEMA_VERSION,
            "experiment_id": "t",
            "title": "t",
            "headers": ["a"],
            "rows": [[1]],
        }
        doc.update(overrides)
        return doc

    def test_round_trips_current_version(self):
        result = ExperimentResult.from_dict(self._doc())
        assert result.experiment_id == "t"
        assert result.rows == [(1,)]

    def test_missing_schema_version_rejected_with_hint(self):
        doc = self._doc()
        del doc["schema_version"]
        with pytest.raises(ValueError) as exc:
            ExperimentResult.from_dict(doc)
        msg = str(exc.value)
        assert "no schema_version" in msg
        assert "re-run the experiment" in msg

    @pytest.mark.parametrize("version", [0, 2, 999, "1", None])
    def test_unknown_schema_version_rejected_with_hint(self, version):
        with pytest.raises(ValueError) as exc:
            ExperimentResult.from_dict(self._doc(schema_version=version))
        msg = str(exc.value)
        assert f"unsupported result schema_version {version!r}" in msg
        assert "version 1 only" in msg

    def test_from_json_applies_the_same_guard(self):
        doc = self._doc(schema_version=99)
        with pytest.raises(ValueError, match="unsupported result"):
            ExperimentResult.from_json(json.dumps(doc))


# ------------------------------------------------------ removed legacy shim
class TestLegacyRunnerStyleRemoved:
    """The pre-RunContext call styles (deprecated through PR 3's shim)
    are gone: each one raises a TypeError naming the replacement."""

    @pytest.fixture(scope="class")
    def runner(self):
        return EXPERIMENTS["table4"].resolve()

    def test_positional_bool_style_rejected(self, runner):
        with pytest.raises(TypeError, match="RunContext"):
            runner(True)

    def test_keyword_style_rejected_names_offenders(self, runner):
        with pytest.raises(TypeError, match="jobs.*quick|quick.*jobs"):
            runner(quick=True, jobs=1)

    def test_modern_style_does_not_warn(self, runner):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            runner(RunContext(quick=True))

    def test_mixing_context_and_legacy_kwargs_rejected(self, runner):
        with pytest.raises(TypeError, match="RunContext"):
            runner(RunContext(quick=True), quick=True)

    def test_non_context_positional_rejected(self, runner):
        with pytest.raises(TypeError, match="expected RunContext"):
            runner("quick")
