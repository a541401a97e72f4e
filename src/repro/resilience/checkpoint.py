"""Journaled checkpoints: crash-safe records of completed timing classes.

A :class:`CheckpointJournal` is a directory holding one *segment* file
per simulated timing class plus a small ``meta.json``. A segment
records one outcome together with the grid indices it served: the
members of one batch group (see :mod:`repro.batch`), which share a
simulation, share one segment, so a batched grid writes and fsyncs
once per group instead of once per point. Segments are written with
:func:`repro.util.io.atomic_write_bytes`, so the journal never
contains a half-written segment under its final name; a torn write
(power loss, ``kill -9`` mid-rename) at worst leaves a stray temp
file that the next open sweeps away.

Each segment is one :func:`repro.util.io.frame` record, named after
its first member (``point-NNNNNN.seg``)::

    RJRN3 | crc32, payload length | class key (32 B), member count |
    members (>I each) | pickled outcome

The class key is :meth:`repro.batch.BatchKey.to_bytes`, and the CRC32
covers it, the member list and the outcome. On resume a point is only
served when its index is a member of a verified segment whose key
equals the point's own — the guarantee batching already rests on:
equal keys give bit-identical outcomes — so a journal from a
different grid shape (``--quick`` vs full, different persona) can
never leak stale outcomes into a run. Any segment that does not
verify (including one written under an older framing, ``RJRN1`` or
``RJRN2``) is treated as absent: only the damaged classes of an
interrupted campaign are re-simulated, never the whole grid.
"""

from __future__ import annotations

import json
import pickle
import re
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.util.io import (
    atomic_write_bytes,
    atomic_write_text,
    frame,
    sweep_temp_files,
    unframe,
)

#: Bump when the segment framing changes; unknown versions are damaged.
_MAGIC = b"RJRN3\0"
#: The segment header: class key, member count.
_HEADER = struct.Struct(">32sI")
_SEGMENT_RE = re.compile(r"^point-\d{6}\.seg$")
_META_NAME = "meta.json"

JOURNAL_SCHEMA_VERSION = 1


def _segment_name(index: int) -> str:
    return f"point-{index:06d}.seg"


@dataclass(frozen=True)
class _Record:
    """Where one verified segment is and whom it serves."""

    key: bytes
    members: tuple[int, ...]
    path: Path


def _read_segment(seg: Path) -> tuple[bytes, tuple[int, ...], bytes] | None:
    """``(class key, members, pickled outcome)`` of a verified segment."""
    try:
        blob = seg.read_bytes()
    except OSError:  # pragma: no cover - unreadable file
        return None
    record = unframe(blob, _MAGIC, _HEADER.size)
    if record is None:
        return None
    header, payload = record
    key, n = _HEADER.unpack(header)
    split = 4 * n  # >I per member
    if n == 0 or len(payload) < split:
        return None
    members = struct.unpack(f">{n}I", payload[:split])
    return key, members, payload[split:]


def _scan_segments(path: Path) -> Iterator[tuple[Path, _Record | None]]:
    """Every segment under ``path`` in name order, with its record
    (``None`` for a damaged segment)."""
    for seg in sorted(path.iterdir()):
        if _SEGMENT_RE.match(seg.name) is not None:
            read = _read_segment(seg)
            record = None if read is None else _Record(read[0], read[1], seg)
            yield seg, record


@dataclass
class JournalStatus:
    """What ``repro status`` reports about one experiment's journal."""

    path: Path
    exists: bool
    points: int = 0
    points_expected: int | None = None
    damaged: list[str] = field(default_factory=list)
    bytes: int = 0
    updated_at: float | None = None
    experiment_id: str | None = None

    @property
    def complete(self) -> bool | None:
        if self.points_expected is None:
            return None
        return self.points >= self.points_expected

    def to_dict(self) -> dict[str, object]:
        return {
            "path": str(self.path),
            "exists": self.exists,
            "experiment_id": self.experiment_id,
            "points": self.points,
            "points_expected": self.points_expected,
            "complete": self.complete,
            "damaged": list(self.damaged),
            "bytes": self.bytes,
            "updated_at": self.updated_at,
        }


class CheckpointJournal:
    """Append-only, CRC-checked record of completed timing classes."""

    def __init__(self, path: Path | str, resume: bool = False):
        self.path = Path(path)
        self.resume = resume
        #: grid index -> the verified record that serves it.
        self._index: dict[int, _Record] = {}
        #: The record :meth:`get` read last, with its outcome.
        self._loaded: tuple[_Record, object] | None = None
        #: Segment names that failed verification on scan or read.
        self.damaged: list[str] = []
        self.path.mkdir(parents=True, exist_ok=True)
        sweep_temp_files(self.path)
        if resume:
            self._scan()
        else:
            self._reset()

    # ------------------------------------------------------------- lifecycle
    def _reset(self) -> None:
        """Drop any previous campaign's segments (fresh, non-resume run)."""
        for seg in self.path.glob("point-*.seg"):
            seg.unlink(missing_ok=True)
        self._index.clear()
        self.damaged.clear()

    def _scan(self) -> None:
        for seg, record in _scan_segments(self.path):
            if record is None:
                self.damaged.append(seg.name)
            else:
                self._track(record)

    def _track(self, record: _Record) -> None:
        """Index ``record``'s members, forgetting the record it replaced."""
        old = self._index.get(record.members[0])
        if old is not None and old.path == record.path:
            self._forget(old)
        for index in record.members:
            self._index[index] = record

    def _forget(self, record: _Record) -> None:
        for index in record.members:
            if self._index.get(index) is record:
                del self._index[index]

    def complete(self) -> None:
        """The campaign finished: the journal has served its purpose."""
        for entry in list(self.path.iterdir()):
            entry.unlink(missing_ok=True)
        self._index.clear()
        self._loaded = None
        try:
            self.path.rmdir()
        except OSError:  # pragma: no cover - concurrent writer
            pass

    # --------------------------------------------------------------- segments
    def append(
        self, key: bytes, indices: Sequence[int], outcome: object
    ) -> Path:
        """Journal one outcome for the grid indices it serves (one
        atomic temp-file + rename, named after the first index)."""
        members = tuple(indices)
        header = _HEADER.pack(key, len(members))
        payload = struct.pack(f">{len(members)}I", *members)
        payload += pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        final = atomic_write_bytes(
            self.path / _segment_name(members[0]),
            frame(_MAGIC, payload, header),
        )
        self._track(_Record(key, members, final))
        return final

    def get(self, index: int, key: bytes) -> object | None:
        """The journaled outcome for grid point ``index`` of class
        ``key``, if intact.

        Gets of one record's members in a row read, verify and
        unpickle it once and return one shared object, so a caller
        that needs an object per member copies it.
        """
        record = self._index.get(index)
        if record is None or record.key != key:
            return None
        if self._loaded is None or self._loaded[0] is not record:
            read = _read_segment(record.path)
            if read is None or read[:2] != (record.key, record.members):
                # Damaged, or replaced by another grid's record, since
                # the scan.
                self._forget(record)
                if read is None:
                    self.damaged.append(record.path.name)
                return None
            self._loaded = (record, pickle.loads(read[2]))
        return self._loaded[1]

    def __contains__(self, index: int) -> bool:
        return index in self._index

    def __len__(self) -> int:
        return len(self._index)

    # ------------------------------------------------------------------- meta
    def write_meta(
        self,
        experiment_id: str | None = None,
        points_expected: int | None = None,
    ) -> None:
        """Record campaign facts for ``repro status`` (atomic write)."""
        meta = {
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "experiment_id": experiment_id,
            "points_expected": points_expected,
            "updated_at": time.time(),
        }
        atomic_write_text(
            self.path / _META_NAME, json.dumps(meta, indent=2) + "\n"
        )


def journal_status(path: Path | str) -> JournalStatus:
    """Inspect a journal directory without opening it for writing."""
    path = Path(path)
    status = JournalStatus(path=path, exists=path.is_dir())
    if not status.exists:
        return status
    meta_path = path / _META_NAME
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text())
            status.experiment_id = meta.get("experiment_id")
            status.points_expected = meta.get("points_expected")
        except (OSError, json.JSONDecodeError):
            status.damaged.append(_META_NAME)
    newest = 0.0
    points: set[int] = set()
    for seg, record in _scan_segments(path):
        st = seg.stat()
        status.bytes += st.st_size
        newest = max(newest, st.st_mtime)
        if record is None:
            status.damaged.append(seg.name)
        else:
            points.update(record.members)
    status.points = len(points)
    status.updated_at = newest or None
    return status
