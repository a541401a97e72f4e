"""Unit coverage for the resilience layer: policies, the checkpoint
journal's framing and corruption handling, atomic writes, signal
plumbing, and the worker fault injectors."""

from __future__ import annotations

import hashlib
import os
import signal

import pytest

from repro.batch import BatchKey
from repro.check.faults import (
    WORKER_FAULT_ENV,
    active_worker_fault,
    arm_worker_fault,
    disarm_worker_fault,
    inject_checkpoint_truncation,
)
from repro.experiments.context import RunContext, resolve_auto_jobs
from repro.resilience import (
    EXIT_RESUMABLE,
    CheckpointJournal,
    GridInterrupted,
    RetryPolicy,
    backoff_schedule,
    derive_deadline,
    journal_status,
    resumable_signals,
)
from repro.resilience.store import ResultCache
from repro.util.io import atomic_write_bytes, atomic_write_text


# ------------------------------------------------------------------ policy
def test_backoff_first_attempt_is_free():
    assert backoff_schedule(0) == 0.0
    assert backoff_schedule(-3) == 0.0


def test_backoff_grows_geometrically_then_caps():
    waits = [
        backoff_schedule(n, base_s=0.25, factor=2.0, cap_s=5.0)
        for n in (1, 2, 3, 4, 5, 6, 20)
    ]
    assert waits == [0.25, 0.5, 1.0, 2.0, 4.0, 5.0, 5.0]


def test_derive_deadline_needs_observations():
    assert derive_deadline([]) is None


def test_derive_deadline_scales_slowest_point_with_floor():
    # 8x the slowest completed point, but never below the floor.
    assert derive_deadline([0.1, 2.0], floor_s=5.0, factor=8.0) == 16.0
    assert derive_deadline([0.01], floor_s=5.0, factor=8.0) == 5.0


def test_retry_policy_validates():
    with pytest.raises(ValueError, match="retries"):
        RetryPolicy(retries=-1)
    with pytest.raises(ValueError, match="deadline_s"):
        RetryPolicy(deadline_s=0.0)


def test_retry_policy_explicit_deadline_wins():
    policy = RetryPolicy(deadline_s=3.0)
    assert policy.deadline_for([100.0]) == 3.0
    adaptive = RetryPolicy()
    assert adaptive.deadline_for([]) is None
    assert adaptive.deadline_for([2.0]) == 16.0


# ----------------------------------------------------------------- journal
def _key(tag: object) -> bytes:
    """A 32-byte class key, as :meth:`BatchKey.to_bytes` gives one."""
    return hashlib.sha256(repr(tag).encode()).digest()


@pytest.fixture
def outcome_payload():
    return {"ledger": {"alu": 42}, "cycles": 1234}


def test_journal_roundtrip(tmp_path, outcome_payload):
    journal = CheckpointJournal(tmp_path / "j")
    key = _key(("req", 0))
    journal.append(key, (3,), outcome_payload)
    assert journal.get(3, key) == outcome_payload
    assert journal.cache.entry_count("point") == 1


def test_journal_digest_mismatch_is_a_miss(tmp_path, outcome_payload):
    journal = CheckpointJournal(tmp_path / "j")
    journal.append(_key("grid A"), (0,), outcome_payload)
    reopened = CheckpointJournal(tmp_path / "j", resume=True)
    # Same index from a different grid shape must never be served.
    assert reopened.get(0, _key("grid B")) is None
    assert reopened.get(0, _key("grid A")) == outcome_payload


def test_journal_fresh_open_resets(tmp_path, outcome_payload):
    path = tmp_path / "j"
    CheckpointJournal(path).append(_key("x"), (0,), outcome_payload)
    fresh = CheckpointJournal(path, resume=False)
    assert fresh.get(0, _key("x")) is None
    assert fresh.cache.entry_count() == 0


def test_journal_detects_truncated_segment(tmp_path, outcome_payload):
    path = tmp_path / "j"
    journal = CheckpointJournal(path)
    keys = [_key(("req", i)) for i in range(3)]
    journal.write_meta(classes={key: 1 for key in keys})
    for i, key in enumerate(keys):
        journal.append(key, (i,), outcome_payload)

    report = inject_checkpoint_truncation(path, drop_bytes=5)
    damaged = f"{keys[2].hex()}.cas"
    assert damaged in report.detail

    resumed = CheckpointJournal(path, resume=True)
    # Only the damaged tail is absent; intact points still serve.
    assert journal_status(path).damaged == [damaged]
    assert resumed.get(0, keys[0]) == outcome_payload
    assert resumed.get(1, keys[1]) == outcome_payload
    assert resumed.get(2, keys[2]) is None


def test_journal_detects_corruption_after_scan(tmp_path, outcome_payload):
    path = tmp_path / "j"
    journal = CheckpointJournal(path)
    key = _key("req")
    entry = journal.append(key, (0,), outcome_payload)
    blob = bytearray(entry.read_bytes())
    blob[-1] ^= 0xFF  # flip a payload bit under the CRC
    entry.write_bytes(bytes(blob))
    assert journal.get(0, key) is None  # CRC re-check on read
    assert journal_status(path).damaged == [entry.name]


def test_journal_complete_removes_directory(tmp_path, outcome_payload):
    path = tmp_path / "j"
    journal = CheckpointJournal(path)
    journal.write_meta(experiment_id="fig13", points_expected=2)
    journal.append(_key("a"), (0,), outcome_payload)
    journal.complete()
    assert not path.exists()


def test_journal_sweeps_stale_temp_files(tmp_path):
    # A write a crash cut short leaves a temp file beside the entries.
    # Nothing reads it, and a completed or a fresh run deletes it.
    path = tmp_path / "j"
    stale = path / "point" / "ab" / ".tmp-stale"
    stale.parent.mkdir(parents=True)
    stale.write_bytes(b"half an entry")
    CheckpointJournal(path, resume=True).complete()
    assert not stale.exists()
    stale.parent.mkdir(parents=True)
    stale.write_bytes(b"half an entry")
    CheckpointJournal(path)
    assert not stale.exists()


def test_journal_status_reports_counts(tmp_path, outcome_payload):
    path = tmp_path / "j"
    journal = CheckpointJournal(path)
    journal.write_meta(
        experiment_id="fig13",
        points_expected=5,
        classes={_key(i): 1 for i in range(5)},
    )
    for i in range(2):
        journal.append(_key(i), (i,), outcome_payload)
    status = journal_status(path)
    assert status.exists
    assert status.experiment_id == "fig13"
    assert (status.points, status.points_expected) == (2, 5)
    assert status.complete is False
    assert status.bytes > 0
    missing = journal_status(tmp_path / "nope")
    assert not missing.exists and missing.points == 0


def test_journal_status_counts_group_members(tmp_path, outcome_payload):
    path = tmp_path / "j"
    journal = CheckpointJournal(path)
    classes = {_key("class A"): 4, _key("class B"): 2, _key("class C"): 6}
    journal.write_meta(
        experiment_id="sweep-int", points_expected=12, classes=classes
    )
    journal.append(_key("class A"), (0, 2, 4, 6), outcome_payload)
    journal.append(_key("class B"), (1, 3), outcome_payload)
    status = journal_status(path)
    assert journal.cache.entry_count("point") == 2
    assert (status.points, status.points_expected) == (6, 12)
    assert status.damaged == [] and status.complete is False


def test_journal_serves_every_point_of_a_class(tmp_path, outcome_payload):
    path = tmp_path / "j"
    key = _key("class")
    CheckpointJournal(path).append(key, (0, 2, 5), outcome_payload)
    resumed = CheckpointJournal(path, resume=True)
    # The key alone fixes the outcome, so the entry serves every point
    # of its class, not only the ones it was first written for.
    assert [resumed.get(i, key) for i in range(8)] == [outcome_payload] * 8
    assert resumed.get(2, _key("other class")) is None


def test_journal_reads_a_group_record_once(
    tmp_path, outcome_payload, monkeypatch
):
    path = tmp_path / "j"
    key = _key("class")
    CheckpointJournal(path).append(key, (0, 1, 2, 3), outcome_payload)
    resumed = CheckpointJournal(path, resume=True)
    reads = []
    original = ResultCache.get
    monkeypatch.setattr(
        ResultCache,
        "get",
        lambda cache, namespace, k: reads.append(k)
        or original(cache, namespace, k),
    )
    served = [resumed.get(i, key) for i in range(4)]
    assert reads == [key]
    assert all(outcome == outcome_payload for outcome in served)


def test_batch_key_bytes_stable_and_discriminating():
    digest = hashlib.sha256(b"request").digest()
    key = BatchKey(digest=digest, freq_token=None)
    assert key.to_bytes() == BatchKey(digest, None).to_bytes()
    assert len(key.to_bytes()) == 32
    distinct = {
        key.to_bytes(),
        BatchKey(digest, 5e8).to_bytes(),
        BatchKey(digest, 6e8).to_bytes(),
        BatchKey(digest, 0.0).to_bytes(),
        BatchKey(hashlib.sha256(b"other").digest(), None).to_bytes(),
    }
    assert len(distinct) == 5


# ----------------------------------------------------------- atomic writes
def test_atomic_write_replaces_content(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    atomic_write_text(target, "new")
    assert target.read_text() == "new"
    assert not list(tmp_path.glob(".*tmp*"))  # no temp litter


def test_atomic_write_ensure_newline(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "line", ensure_newline=True)
    assert target.read_text() == "line\n"


def test_atomic_write_failure_leaves_old_file(tmp_path, monkeypatch):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")

    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", boom)
    with pytest.raises(OSError):
        atomic_write_bytes(target, b"new")
    assert target.read_bytes() == b"old"
    assert not list(tmp_path.glob(".*tmp*"))


# -------------------------------------------------------------- RunContext
def test_run_context_jobs_zero_means_auto():
    ctx = RunContext(jobs=0)
    assert ctx.jobs == resolve_auto_jobs() >= 1


def test_run_context_validates_resilience_knobs():
    with pytest.raises(ValueError, match="retries"):
        RunContext(retries=-1)
    with pytest.raises(ValueError, match="deadline_s"):
        RunContext(deadline_s=-2.0)


def test_run_context_supervision_default_is_none(tmp_path):
    # The idle library default: serial, nothing journaled, no pool —
    # supervision must cost nothing.
    assert RunContext().supervision("fig13") is None


def test_run_context_supervision_wires_policy_and_journal(tmp_path):
    ctx = RunContext(
        jobs=2,
        retries=5,
        deadline_s=9.0,
        checkpoint_dir=str(tmp_path / "ckpt"),
    )
    sup = ctx.supervision("fig13")
    assert sup.policy.retries == 5
    assert sup.policy.deadline_s == 9.0
    assert sup.journal is not None
    assert sup.journal.path == tmp_path / "ckpt" / "fig13"
    assert sup.experiment_id == "fig13"
    sup.journal.complete()


def test_run_context_resume_uses_default_checkpoint_dir(
    tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)  # default dir is CWD-relative
    ctx = RunContext(resume=True)
    sup = ctx.supervision("fig11")
    assert sup is not None and sup.journal.resume
    sup.journal.complete()


# ------------------------------------------------------------ worker faults
@pytest.fixture(autouse=True)
def _clean_fault_env(monkeypatch):
    monkeypatch.delenv(WORKER_FAULT_ENV, raising=False)


def test_worker_fault_arm_parse_disarm():
    assert active_worker_fault() is None
    arm_worker_fault("worker_crash", point=7)
    assert os.environ[WORKER_FAULT_ENV] == "worker_crash:7"
    assert active_worker_fault() == ("worker_crash", 7)
    disarm_worker_fault()
    assert active_worker_fault() is None


def test_worker_fault_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown worker fault"):
        arm_worker_fault("coffee_spill")


def test_worker_fault_malformed_spec_raises(monkeypatch):
    monkeypatch.setenv(WORKER_FAULT_ENV, "worker_crash")
    with pytest.raises(ValueError, match="malformed"):
        active_worker_fault()
    monkeypatch.setenv(WORKER_FAULT_ENV, "segfault:1")
    with pytest.raises(ValueError, match="unknown worker fault kind"):
        active_worker_fault()


def test_checkpoint_truncation_requires_segments(tmp_path):
    with pytest.raises(RuntimeError, match="no checkpoint entries"):
        inject_checkpoint_truncation(tmp_path)


# ---------------------------------------------------------------- signals
def test_exit_resumable_is_ex_tempfail():
    assert EXIT_RESUMABLE == 75


def test_grid_interrupted_is_a_keyboard_interrupt():
    # Pre-existing `except KeyboardInterrupt` cleanup must keep firing.
    assert issubclass(GridInterrupted, KeyboardInterrupt)
    assert GridInterrupted(signal.SIGTERM).signum == signal.SIGTERM


def test_resumable_signals_raise_and_restore():
    before = signal.getsignal(signal.SIGINT)
    with resumable_signals():
        with pytest.raises(GridInterrupted) as exc_info:
            os.kill(os.getpid(), signal.SIGINT)
        assert exc_info.value.signum == signal.SIGINT
    assert signal.getsignal(signal.SIGINT) is before
