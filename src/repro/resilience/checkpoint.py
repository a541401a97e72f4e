"""Journaled checkpoints: crash-safe records of completed points.

A :class:`CheckpointJournal` is a directory holding one *segment* file
per completed grid point plus a small ``meta.json``. Segments are
written with :func:`repro.util.io.atomic_write_bytes`, so the journal
never contains a half-written segment under its final name; a torn
write (power loss, ``kill -9`` mid-rename) at worst leaves a stray
temp file that the next open sweeps away.

Each segment is one :func:`repro.util.io.frame` record: a pickled
payload (a stripped :class:`~repro.system.SimOutcome`) under a
header holding the SHA-256 digest of the :class:`SimRequest` that
produced it, both covered by the CRC32. On resume a point is only
reused when its index *and* request digest match — so a journal from
a different grid shape (``--quick`` vs full, different persona) can
never leak stale outcomes into a run — and any segment that does not
verify (including one written under an older framing) is treated as
absent: only the damaged tail of an interrupted campaign is
re-simulated, never the whole grid.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.util.io import (
    atomic_write_bytes,
    atomic_write_text,
    frame,
    sweep_temp_files,
    unframe,
)

#: Bump when the segment framing changes; unknown versions are damaged.
_MAGIC = b"RJRN2\0"
#: The segment header: sha256(request).
_DIGEST_SIZE = 32
_SEGMENT_RE = re.compile(r"^point-(\d{6})\.seg$")
_META_NAME = "meta.json"

JOURNAL_SCHEMA_VERSION = 1


def request_digest(request: object) -> bytes:
    """SHA-256 identity of one grid point's simulation request.

    The digest is over the request's pickle. Requests are plain
    dataclasses of scalars, lists, and insertion-ordered dicts (no
    sets), so the bytes are stable across processes and runs of the
    same code — which is what lets ``--resume`` match points written
    by an earlier, interrupted process.
    """
    return hashlib.sha256(
        pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
    ).digest()


def _segment_name(index: int) -> str:
    return f"point-{index:06d}.seg"


def _read_segment(seg: Path) -> tuple[bytes, bytes] | None:
    """``(request digest, pickled outcome)`` of a verified segment."""
    try:
        blob = seg.read_bytes()
    except OSError:  # pragma: no cover - unreadable file
        return None
    return unframe(blob, _MAGIC, _DIGEST_SIZE)


def _scan_segments(path: Path) -> Iterator[tuple[Path, int, bytes | None]]:
    """Every segment under ``path`` as ``(file, index, digest)``, in
    index order; the digest is ``None`` for a damaged segment."""
    for seg in sorted(path.iterdir()):
        m = _SEGMENT_RE.match(seg.name)
        if m is not None:
            record = _read_segment(seg)
            digest = None if record is None else record[0]
            yield seg, int(m.group(1)), digest


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
    """Append-only, CRC-checked record of completed grid points."""

    def __init__(self, path: Path | str, resume: bool = False):
        self.path = Path(path)
        self.resume = resume
        #: index -> (request digest, segment path) for verified segments.
        self._index: dict[int, tuple[bytes, Path]] = {}
        #: Segment names that failed verification on scan.
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
        for seg, index, digest in _scan_segments(self.path):
            if digest is None:
                self.damaged.append(seg.name)
            else:
                self._index[index] = (digest, seg)

    def complete(self) -> None:
        """The campaign finished: the journal has served its purpose."""
        for entry in list(self.path.iterdir()):
            entry.unlink(missing_ok=True)
        self._index.clear()
        try:
            self.path.rmdir()
        except OSError:  # pragma: no cover - concurrent writer
            pass

    # --------------------------------------------------------------- segments
    def append(self, index: int, digest: bytes, outcome: object) -> Path:
        """Journal one completed point (atomic temp-file + rename)."""
        payload = pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
        final = atomic_write_bytes(
            self.path / _segment_name(index),
            frame(_MAGIC, payload, header=digest),
        )
        self._index[index] = (digest, final)
        return final

    def get(self, index: int, digest: bytes) -> object | None:
        """The journaled outcome for ``(index, digest)``, if intact."""
        entry = self._index.get(index)
        if entry is None or entry[0] != digest:
            return None
        record = _read_segment(entry[1])
        if record is None or record[0] != digest:  # damaged since the scan
            self._index.pop(index, None)
            self.damaged.append(entry[1].name)
            return None
        return pickle.loads(record[1])

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
    for seg, _index, digest in _scan_segments(path):
        st = seg.stat()
        status.bytes += st.st_size
        newest = max(newest, st.st_mtime)
        if digest is None:
            status.damaged.append(seg.name)
        else:
            status.points += 1
    status.updated_at = newest or None
    return status
