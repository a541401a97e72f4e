"""Golden-run differential tests: every registered experiment's
quick-mode JSON document must match its committed snapshot under
``tests/goldens/`` (regenerate with ``repro verify --update``).

This is the drift alarm for the whole pipeline: any change to the
simulator, the power model, the measurement path, or the result
serialization that moves a number shows up here as a named per-metric
diff, not as a silent reinterpretation of the paper.
"""

from __future__ import annotations

import json

import pytest

from repro.check.anchors import ANCHORS
from repro.check.golden import (
    DEFAULT_GOLDEN_DIR,
    diff_documents,
    golden_path,
    live_document,
    load_golden,
    result_document,
    verify_experiments,
    write_golden,
)
from repro.experiments import EXPERIMENTS

#: Experiments whose quick runs take multiple seconds; slow-marked so
#: ``-m "not slow"`` keeps the fast loop snappy.
HEAVY = ("fig13", "fig14")
FAST = tuple(eid for eid in EXPERIMENTS if eid not in HEAVY)


def test_every_experiment_has_a_committed_golden():
    missing = [
        eid for eid in EXPERIMENTS if not golden_path(eid).exists()
    ]
    assert not missing, (
        f"no golden snapshot for {missing}; run "
        "`repro verify --update` and commit tests/goldens/"
    )


def test_goldens_have_no_manifest():
    """Snapshots must be stripped: manifests carry wall times."""
    for eid in EXPERIMENTS:
        doc = load_golden(eid)
        assert doc is not None
        assert "manifest" not in doc, f"{eid} golden carries a manifest"
        assert doc["experiment_id"] == eid


# The live runs come from the shared per-run quick results (see
# ``quick_result`` in tests/conftest.py), which the slow shape tests
# read too; ``live_document`` runs the same context.
@pytest.mark.parametrize("eid", FAST)
def test_live_run_matches_golden(eid, quick_result):
    golden = load_golden(eid)
    diffs = diff_documents(golden, result_document(quick_result(eid)))
    assert not diffs, f"{eid} drifted from golden:\n" + "\n".join(diffs)


@pytest.mark.slow
@pytest.mark.parametrize("eid", HEAVY)
def test_live_run_matches_golden_heavy(eid, quick_result):
    golden = load_golden(eid)
    diffs = diff_documents(golden, result_document(quick_result(eid)))
    assert not diffs, f"{eid} drifted from golden:\n" + "\n".join(diffs)


def test_checked_run_is_bit_identical_to_golden():
    """``checks=True`` must not move a single bit of the output: the
    checked fig11 document equals the (unchecked) golden exactly."""
    golden = load_golden("fig11")
    live = live_document("fig11", checks=True)
    assert json.dumps(golden, sort_keys=True) == json.dumps(
        live, sort_keys=True
    )


class TestVerifyHarness:
    def test_missing_golden_reported(self, tmp_path):
        report = verify_experiments(["table4"], goldens_dir=tmp_path)
        assert not report.ok
        assert report.outcomes[0].status == "missing"
        assert "repro verify --update" in report.outcomes[0].diffs[0]

    def test_update_then_pass_then_drift(self, tmp_path):
        report = verify_experiments(
            ["table4"], goldens_dir=tmp_path, update=True
        )
        assert report.ok
        assert golden_path("table4", tmp_path).exists()

        report = verify_experiments(["table4"], goldens_dir=tmp_path)
        assert report.ok and report.outcomes[0].status == "pass"

        # Corrupt one number: verification must fail and name the path.
        doc = load_golden("table4", tmp_path)
        doc["rows"][0][-1] = 999_999
        write_golden("table4", doc, tmp_path)
        report = verify_experiments(["table4"], goldens_dir=tmp_path)
        assert not report.ok
        assert report.outcomes[0].status == "fail"
        assert any("rows[0]" in d for d in report.outcomes[0].diffs)

    def test_report_serializes(self, tmp_path):
        report = verify_experiments(
            ["table4"], goldens_dir=tmp_path, update=True
        )
        doc = report.to_dict()
        assert doc["schema_version"] == 1
        assert doc["ok"] is True
        json.dumps(doc)  # must be JSON-clean
        # Every checked paper-anchor row, with its numbers.
        anchors = doc["results"][0]["anchors"]
        assert [a["name"] for a in anchors] == [
            a.name for a in ANCHORS if a.name.startswith("table4/")
        ]
        for key in ("measured_value", "paper_value", "deviation", "tolerance"):
            assert all(isinstance(a[key], float) for a in anchors), key

    def test_cli_verify_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        golden_dir = str(tmp_path)
        assert (
            main(["verify", "table4", "--update", "--goldens", golden_dir])
            == 0
        )
        report_file = tmp_path / "report.json"
        assert (
            main(
                [
                    "verify",
                    "table4",
                    "--goldens",
                    golden_dir,
                    "--report",
                    str(report_file),
                ]
            )
            == 0
        )
        payload = json.loads(report_file.read_text())
        assert payload["ok"] is True
        out = capsys.readouterr().out
        assert "PASS" in out

        # fig8 has no golden in the tmp dir -> drift -> exit 1.
        assert main(["verify", "fig8", "--goldens", golden_dir]) == 1


def test_default_golden_dir_is_committed_location():
    assert DEFAULT_GOLDEN_DIR.name == "goldens"
    assert DEFAULT_GOLDEN_DIR.parent.name == "tests"
