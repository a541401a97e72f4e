"""The durable record kinds read damaged records as absent.

Job records and result-store entries share one frame
(``repro.util.io.frame``), and a run checkpoint is a result store.
For one record of each kind, every one-bit flip and every truncation
of its file must make the store treat the record as absent, and the
bytes on disk must match the layout rebuilt here by hand with
``struct`` and ``zlib``.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import struct
import zlib

import pytest

from repro.resilience.checkpoint import CheckpointJournal, journal_status
from repro.serve.cas import ResultCache
from repro.serve.journal import JobJournal

OUTCOME = {"cycles": 1234, "tier": "sim"}
#: A 32-byte key, as ``BatchKey.to_bytes`` and the service use.
DIGEST = hashlib.sha256(b"records").digest()
#: The grid points one timing class serves.
MEMBERS = (0, 3, 5)


def _variants(blob: bytes):
    """Every one-bit flip of ``blob``, then every proper prefix."""
    for bit in range(len(blob) * 8):
        damaged = bytearray(blob)
        damaged[bit // 8] ^= 1 << (bit % 8)
        yield bytes(damaged)
    for size in range(len(blob)):
        yield blob[:size]


def _framed(magic: bytes, payload: bytes, header: bytes = b"") -> bytes:
    crc = zlib.crc32(header + payload)
    return magic + struct.pack(">IQ", crc, len(payload)) + header + payload


# ------------------------------------------------------------------ layout
def test_checkpoint_entry_layout(tmp_path):
    path = CheckpointJournal(tmp_path).append(DIGEST, MEMBERS, OUTCOME)
    # A result-store entry under the class key: the tier header, then
    # the pickled outcome. The CRC covers both.
    header = struct.pack(">Bd", 0, 0.0)
    payload = pickle.dumps(OUTCOME, protocol=pickle.HIGHEST_PROTOCOL)
    key = DIGEST.hex()
    assert path == tmp_path / "point" / key[:2] / f"{key}.cas"
    assert path.read_bytes() == _framed(b"RCAS2\0", payload, header)


def test_job_record_layout_is_unchanged(tmp_path):
    journal = JobJournal(tmp_path)
    path = journal.record("run", "abc", "accepted", {"params": {"x": 1}})
    payload = json.dumps(
        journal.get("run", "abc").to_dict(),
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    # No kind header: the CRC covers the payload alone, as in every
    # RJOB1 record ever written.
    assert path.read_bytes() == _framed(b"RJOB1\0", payload)


def test_cache_entry_layout(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.put("point", DIGEST, b"payload", tier="fast", tier_err=0.03)
    header = struct.pack(">Bd", 1, 0.03)
    assert path.read_bytes() == _framed(b"RCAS2\0", b"payload", header)


# ------------------------------------------------------------ compatibility
def test_hand_framed_job_record_recovers(tmp_path):
    doc = {
        "schema_version": 1,
        "kind": "sweep",
        "digest": "d1",
        "state": "running",
        "request": {"spec": {"a": 1}},
        "created_at": 1.0,
        "updated_at": 2.0,
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    (tmp_path / "sweep-d1.job").write_bytes(
        _framed(b"RJOB1\0", payload.encode("utf-8"))
    )
    records, damaged = JobJournal(tmp_path).scan()
    assert damaged == []
    assert [(r.kind, r.digest, r.request) for r in records] == [
        ("sweep", "d1", {"spec": {"a": 1}})
    ]


def test_older_segment_is_never_served(tmp_path):
    payload = pickle.dumps(OUTCOME, protocol=pickle.HIGHEST_PROTOCOL)
    # The segments checkpoints were before they became store entries:
    # RJRN3 one per class with its member list, RJRN2 one per point.
    members = struct.pack(">3I", *MEMBERS)
    header = DIGEST + struct.pack(">I", len(MEMBERS))
    (tmp_path / "point-000000.seg").write_bytes(
        _framed(b"RJRN3\0", members + payload, header)
    )
    (tmp_path / "point-000001.seg").write_bytes(
        _framed(b"RJRN2\0", payload, DIGEST)
    )
    journal = CheckpointJournal(tmp_path, resume=True)
    assert all(journal.get(i, DIGEST) is None for i in range(6))
    assert journal_status(tmp_path).points == 0


def test_older_cache_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.put("point", DIGEST, b"payload")
    path.write_bytes(
        b"RCAS1\0"
        + struct.pack(">IQBd", zlib.crc32(b"payload"), 7, 0, 0.0)
        + b"payload"
    )
    assert cache.get("point", DIGEST) is None


# ------------------------------------------------------------------ damage
def test_every_damaged_checkpoint_entry_is_absent(tmp_path):
    path = CheckpointJournal(tmp_path).append(DIGEST, MEMBERS, OUTCOME)
    served = []
    for blob in _variants(path.read_bytes()):
        path.write_bytes(blob)
        journal = CheckpointJournal(tmp_path, resume=True)
        if journal_status(tmp_path).damaged != [path.name] or any(
            journal.get(i, DIGEST) is not None for i in range(6)
        ):
            served.append(blob)
    assert served == []


def test_every_damaged_job_record_is_quarantined(tmp_path):
    journal = JobJournal(tmp_path)
    path = journal.record("run", "abc", "accepted", {"params": {"x": 1}})
    good = path.read_bytes()
    quarantined = tmp_path / (path.name + ".damaged")
    served = []
    for blob in _variants(good):
        path.write_bytes(blob)
        records, damaged = journal.scan()
        if records or damaged != [path.name] or not quarantined.exists():
            served.append(blob)
        quarantined.unlink(missing_ok=True)
        path.unlink(missing_ok=True)
    assert served == []


@pytest.mark.parametrize("tier", ["sim", "fast"])
def test_every_damaged_cache_entry_is_absent(tmp_path, tier):
    cache = ResultCache(tmp_path)
    path = cache.put("point", DIGEST, b"payload", tier=tier, tier_err=0.5)
    good = path.read_bytes()
    quarantined = tmp_path / ResultCache.QUARANTINE_DIR / (
        path.name + ".damaged"
    )
    served = []
    for blob in _variants(good):
        path.write_bytes(blob)
        if cache.get("point", DIGEST) is not None or cache.scrub() != 1:
            served.append(blob)
        quarantined.unlink(missing_ok=True)
    assert served == []
