"""The paper-anchor table (``repro.check.anchors``) against the
committed goldens, and ``repro verify``'s refusal to bless a run that
leaves it."""

from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.check import anchors
from repro.check.anchors import ANCHORS, LEFT_OUT
from repro.check.golden import load_golden, verify_experiments
from repro.experiments import EXPERIMENTS

SRC = Path(__file__).resolve().parents[2] / "src"

golden = functools.lru_cache(maxsize=None)(load_golden)


@pytest.mark.parametrize("anchor", ANCHORS, ids=lambda a: a.name)
def test_row_holds_on_its_golden(anchor):
    experiment, *path = anchor.name.split("/")
    doc = golden(experiment)
    check = anchor.check(doc)
    assert math.isfinite(check.measured_value), check
    # A typed-in value is only for a claim no paper_reference entry holds.
    assert anchor.paper is None or path[0] not in doc["paper_reference"]
    assert check.within_tolerance, check


def test_every_numeric_entry_is_a_row_or_left_out():
    def leaves(node, name):
        if isinstance(node, dict):
            for key, value in node.items():
                yield from leaves(value, f"{name}/{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                yield from leaves(value, f"{name}/{i}")
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            yield name

    rows = {a.name for a in ANCHORS}
    assert not [r for r in rows if r.startswith(tuple(LEFT_OUT))]
    uncovered = [
        name
        for eid in sorted(EXPERIMENTS)
        for name in leaves(golden(eid)["paper_reference"], eid)
        if name not in rows and not name.startswith(tuple(LEFT_OUT))
    ]
    assert uncovered == []


def test_row_out_of_tolerance_fails_and_blesses_nothing(
    tmp_path, monkeypatch
):
    forced = [
        a._replace(paper=1.0) if a.name == "fig8/chip_total_mm2" else a
        for a in ANCHORS
    ]
    monkeypatch.setattr(anchors, "ANCHORS", tuple(forced))

    report = verify_experiments(["fig8"], goldens_dir=tmp_path, update=True)
    assert list(tmp_path.iterdir()) == []
    (outcome,) = report.outcomes
    assert not report.ok and outcome.status == "fail"
    assert any("fig8/chip_total_mm2" in d for d in outcome.diffs)

    # Against the committed golden the run is exact: the row alone
    # fails it.
    (outcome,) = verify_experiments(["fig8"]).outcomes
    assert outcome.status == "fail"
    assert len(outcome.diffs) == 1
    assert "fig8/chip_total_mm2" in outcome.diffs[0]


def test_importing_repro_check_loads_no_experiment():
    """perfbench imports ``repro.check``, and its ``setup_s`` times the
    imports of a fresh interpreter."""
    code = (
        "import sys, repro.check; "
        "print([m for m in sys.modules if m.startswith('repro.experiments')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout
    assert out.strip() == "[]"
