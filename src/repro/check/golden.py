"""Golden-run differential harness behind ``repro verify``.

Quick-mode JSON documents for every registered experiment are
committed under ``tests/goldens/``; ``repro verify`` re-runs the
experiments and diffs the live documents against the goldens with
per-metric tolerances. The simulator is deterministic, so on one
platform the documents match exactly; the tolerance absorbs
cross-platform floating-point noise without hiding real drift.

Run manifests are stripped before comparison — they record wall
times, which legitimately differ between runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.check.anchors import AnchorCheck, check_document

#: src/repro/check/golden.py -> repository root.
_REPO_ROOT = Path(__file__).resolve().parents[3]

#: Where the committed quick-mode snapshots live.
DEFAULT_GOLDEN_DIR = _REPO_ROOT / "tests" / "goldens"

#: Default per-metric tolerances. Quick-mode runs are deterministic;
#: these only absorb libm/platform float noise.
DEFAULT_REL_TOL = 1e-6
DEFAULT_ABS_TOL = 1e-9

#: Cap on reported diffs per experiment; the rest are summarized.
MAX_DIFFS = 20


def golden_path(experiment_id: str, goldens_dir: Path | None = None) -> Path:
    return (goldens_dir or DEFAULT_GOLDEN_DIR) / f"{experiment_id}.json"


def strip_document(doc: Mapping[str, object]) -> dict[str, object]:
    """The comparable slice of a result document (no run manifest)."""
    return {k: v for k, v in doc.items() if k != "manifest"}


def live_document(
    experiment_id: str,
    jobs: int = 1,
    checks: bool = False,
    batch: bool = True,
    tier: str = "sim",
    fidelity: float = 0.05,
    profile_dir: str | None = None,
) -> dict[str, object]:
    """Run one experiment quick and return its stripped document.

    ``tier`` defaults to ``"sim"`` — golden verification is the
    bit-identity contract, so the cycle-level simulator is the only
    tier that can honestly sign it. Passing ``"auto"``/``"fast"``
    (with a matching ``rel_tol``) turns the harness into a surrogate
    accuracy check instead.
    """
    from repro.experiments import RunContext, get_spec

    spec = get_spec(experiment_id)
    ctx = RunContext(
        quick=True,
        jobs=jobs if spec.supports_jobs else 1,
        checks=checks,
        batch=batch,
        tier=tier,
        fidelity=fidelity,
        profile_dir=profile_dir,
    )
    return result_document(spec.resolve()(ctx))


def result_document(result) -> dict[str, object]:
    """An experiment result's stripped document, as a golden holds it.

    Round-tripped through JSON so it has exactly the type shape a
    loaded golden has (e.g. float dict keys become strings); diffing
    is then always JSON-vs-JSON.
    """
    return json.loads(json.dumps(strip_document(result.to_dict())))


# ------------------------------------------------------------------ diffing
def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers_close(a: float, b: float, rel_tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return False
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=DEFAULT_ABS_TOL)


def _diff_value(
    path: str,
    golden: object,
    live: object,
    rel_tol: float,
    out: list[str],
) -> None:
    if _is_number(golden) and _is_number(live):
        if not _numbers_close(float(golden), float(live), rel_tol):
            out.append(
                f"{path}: golden {golden!r} != live {live!r} "
                f"(rel tol {rel_tol:g})"
            )
        return
    if isinstance(golden, Mapping) and isinstance(live, Mapping):
        for key in golden.keys() - live.keys():
            out.append(f"{path}.{key}: missing from live run")
        for key in live.keys() - golden.keys():
            out.append(f"{path}.{key}: not in golden (new metric?)")
        for key in sorted(golden.keys() & live.keys(), key=str):
            _diff_value(f"{path}.{key}", golden[key], live[key], rel_tol, out)
        return
    if isinstance(golden, (list, tuple)) and isinstance(live, (list, tuple)):
        if len(golden) != len(live):
            out.append(
                f"{path}: length {len(golden)} != live {len(live)}"
            )
            return
        for i, (g, l) in enumerate(zip(golden, live)):
            _diff_value(f"{path}[{i}]", g, l, rel_tol, out)
        return
    if golden != live:
        out.append(f"{path}: golden {golden!r} != live {live!r}")


def diff_documents(
    golden: Mapping[str, object],
    live: Mapping[str, object],
    rel_tol: float = DEFAULT_REL_TOL,
) -> list[str]:
    """Human-readable differences between two result documents.

    Empty means the live run matches the golden within tolerance.
    Reports at most :data:`MAX_DIFFS` entries plus a summary line.
    """
    diffs: list[str] = []
    _diff_value(
        "result", strip_document(golden), strip_document(live), rel_tol, diffs
    )
    if len(diffs) > MAX_DIFFS:
        hidden = len(diffs) - MAX_DIFFS
        diffs = diffs[:MAX_DIFFS]
        diffs.append(f"... and {hidden} more difference(s)")
    return diffs


# ------------------------------------------------------------------ verify
@dataclass
class VerifyOutcome:
    """One experiment's verification result."""

    experiment_id: str
    status: str  # "pass" | "fail" | "missing" | "updated"
    diffs: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    #: The paper-anchor rows checked on the live run.
    anchors: list[AnchorCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "updated")

    def to_dict(self) -> dict[str, object]:
        return {
            "experiment_id": self.experiment_id,
            "status": self.status,
            "diffs": list(self.diffs),
            "wall_s": self.wall_s,
            "anchors": [c.to_dict() for c in self.anchors],
        }


@dataclass
class VerifyReport:
    """The full ``repro verify`` outcome, JSON-serializable."""

    outcomes: list[VerifyOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def to_dict(self) -> dict[str, object]:
        return {
            "schema_version": 1,
            "ok": self.ok,
            "results": [o.to_dict() for o in self.outcomes],
        }


def write_golden(
    experiment_id: str,
    doc: Mapping[str, object],
    goldens_dir: Path | None = None,
) -> Path:
    """Write one experiment's golden snapshot (``verify --update``).

    The write is atomic (temp + fsync + rename) so an interrupted
    ``--update`` can never leave a truncated golden behind.
    """
    from repro.util.io import atomic_write_text

    path = golden_path(experiment_id, goldens_dir)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(
        path,
        json.dumps(strip_document(doc), indent=2, sort_keys=True) + "\n",
    )
    return path


def load_golden(
    experiment_id: str, goldens_dir: Path | None = None
) -> dict[str, object] | None:
    path = golden_path(experiment_id, goldens_dir)
    if not path.exists():
        return None
    return json.loads(path.read_text())


def verify_experiments(
    experiment_ids: Sequence[str],
    goldens_dir: Path | None = None,
    update: bool = False,
    jobs: int = 1,
    rel_tol: float | None = None,
    checks: bool = False,
    batch: bool = True,
    tier: str = "sim",
    fidelity: float = 0.05,
    profile_dir: str | None = None,
) -> VerifyReport:
    """Diff live quick runs against goldens (or refresh the goldens).

    Every live run is also checked against its rows of the paper-anchor
    table (:mod:`repro.check.anchors`): a row out of tolerance fails
    the experiment, and ``update`` then leaves its golden unwritten.
    ``rel_tol=None`` uses :data:`DEFAULT_REL_TOL`.
    """
    import time

    report = VerifyReport()
    for eid in experiment_ids:
        start = time.perf_counter()
        golden = load_golden(eid, goldens_dir)
        if golden is None and not update:
            report.outcomes.append(
                VerifyOutcome(
                    eid,
                    "missing",
                    [
                        f"no golden at {golden_path(eid, goldens_dir)}; "
                        "run `repro verify --update` to create it"
                    ],
                )
            )
            continue
        live = live_document(
            eid,
            jobs=jobs,
            checks=checks,
            batch=batch,
            tier=tier,
            fidelity=fidelity,
            profile_dir=profile_dir,
        )
        anchors = check_document(live)
        diffs = [
            f"anchor {c.name} ({c.source}): {c.measured_value:.6g} {c.unit} "
            f"is {100 * c.deviation:+.1f}% from the paper's "
            f"{c.paper_value:g}, outside {100 * c.tolerance:.1f}%"
            for c in anchors
            if not c.within_tolerance
        ]
        if update and not diffs:
            write_golden(eid, live, goldens_dir)
            outcome = VerifyOutcome(eid, "updated")
        else:
            if not update:
                tol = DEFAULT_REL_TOL if rel_tol is None else rel_tol
                diffs = diff_documents(golden, live, rel_tol=tol) + diffs
            outcome = VerifyOutcome(eid, "fail" if diffs else "pass", diffs)
        outcome.anchors = anchors
        outcome.wall_s = time.perf_counter() - start
        report.outcomes.append(outcome)
    return report
