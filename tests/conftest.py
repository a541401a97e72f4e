"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.arch.params import PitonConfig
from repro.check.anchors import check_document
from repro.check.golden import result_document
from repro.experiments import RunContext, get_experiment
from repro.experiments.parallel import close_shared_pools
from repro.system import PitonSystem
from repro.util.events import EventLedger


@pytest.fixture(autouse=True)
def _no_kept_workers():
    """Close the process-wide pools after each test. Their workers
    outlive a grid, so a test's grids would otherwise run on workers
    an earlier test forked, and its child count would depend on the
    order tests run in."""
    yield
    close_shared_pools()


@pytest.fixture
def config() -> PitonConfig:
    return PitonConfig()


@pytest.fixture
def small_config() -> PitonConfig:
    """A 3x3 mesh: cheap enough for exhaustive protocol tests."""
    return PitonConfig(mesh_width=3, mesh_height=3)


@pytest.fixture
def ledger() -> EventLedger:
    return EventLedger()


@pytest.fixture(scope="session")
def shared_system() -> PitonSystem:
    """One default system for read-only measurement tests."""
    return PitonSystem.default(seed=42)


@pytest.fixture(scope="session")
def quick_result():
    """``quick_result(eid)``: one quick run per experiment per pytest run.

    The golden diffs and the slow shape tests read the same run, so
    the heavy experiments (fig11, fig13, fig14) are simulated once,
    not once per reader. Results are shared: readers must not mutate
    them.
    """
    results = {}

    def run(experiment_id: str):
        if experiment_id not in results:
            results[experiment_id] = get_experiment(experiment_id)(
                RunContext(quick=True)
            )
        return results[experiment_id]

    return run


@pytest.fixture(scope="session")
def missed_anchors():
    """``missed_anchors(result, *names)``: the named rows of the
    paper-anchor table (every row of the result's experiment when none
    is named) that ``result`` misses. Each name must be a row."""

    def missed(result, *names: str):
        checks = check_document(result_document(result))
        assert set(names) <= {c.name for c in checks}, names
        return [
            c
            for c in checks
            if (not names or c.name in names) and not c.within_tolerance
        ]

    return missed
