"""Run checkpoints: one result-store entry per completed timing class.

A :class:`CheckpointJournal` is a
:class:`~repro.resilience.store.ResultCache` rooted at the run's
checkpoint directory (``results/checkpoints/<experiment>/``). Each
simulated timing class is one entry in its ``point`` namespace, keyed
by the class's batch key (:meth:`repro.batch.BatchKey.to_bytes`) and
holding the pickled outcome, so a batched grid writes and fsyncs once
per class instead of once per point. ``meta.json``, written once per
grid, names the experiment and lists each class's member count for
``repro status``.

A resumed run reads nothing up front: a point is served when its
class's entry verifies. The key alone fixes the outcome — the
guarantee batching already rests on — so a checkpoint left by a
different grid shape (``--quick`` vs full, another persona) can only
serve outcomes a fresh simulation would reproduce bit for bit. An
entry that does not verify is absent: only the damaged classes of an
interrupted campaign are re-simulated, never the whole grid. A fresh
run and :meth:`CheckpointJournal.complete` delete the root.
"""

from __future__ import annotations

import json
import pickle
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.resilience.store import CacheEntry, ResultCache
from repro.util.io import atomic_write_text

_META_NAME = "meta.json"

#: 2: ``meta.json`` lists each class's member count.
JOURNAL_SCHEMA_VERSION = 2


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
    """A run's checkpoint: one CRC-checked store entry per timing class."""

    def __init__(self, path: Path | str, resume: bool = False):
        self.path = Path(path)
        self.resume = resume
        if not resume:
            shutil.rmtree(self.path, ignore_errors=True)
        self.cache = ResultCache(self.path)
        #: ``(key, outcome or None)`` of the last :meth:`get`.
        self._last: tuple[bytes, object] | None = None

    def complete(self) -> None:
        """The campaign finished: the checkpoint has served its purpose."""
        shutil.rmtree(self.path, ignore_errors=True)
        self._last = None

    def append(
        self, key: bytes, indices: Sequence[int], outcome: object
    ) -> Path:
        """Store class ``key``'s outcome (one atomic temp-file + rename).

        ``indices`` are the grid points it served; the key alone
        already serves every point of the class.
        """
        if self._last is not None and self._last[0] == key:
            self._last = None
        return self.cache.put(
            "point",
            key,
            pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL),
            tier=getattr(outcome, "tier", "sim"),
            tier_err=getattr(outcome, "tier_err", 0.0),
        )

    def get(self, index: int, key: bytes) -> object | None:
        """The stored outcome of grid point ``index``'s class ``key``,
        if its entry verifies.

        Gets of one key in a row read, verify and unpickle its entry
        once (a miss is remembered too) and return one shared object,
        so a caller that needs an object per point copies it.
        """
        if self._last is None or self._last[0] != key:
            entry = self._entry(key)
            self._last = (key, None if entry is None else _load(entry))
        return self._last[1]

    def _entry(self, key: bytes) -> CacheEntry | None:
        return self.cache.get("point", key)

    def write_meta(
        self,
        experiment_id: str | None = None,
        points_expected: int | None = None,
        classes: Mapping[bytes, int] | None = None,
    ) -> None:
        """Record campaign facts for ``repro status`` (atomic write):
        ``classes`` maps each class key to its number of grid points."""
        meta = {
            "schema_version": JOURNAL_SCHEMA_VERSION,
            "experiment_id": experiment_id,
            "points_expected": points_expected,
            "classes": {key.hex(): n for key, n in (classes or {}).items()},
            "updated_at": time.time(),
        }
        atomic_write_text(
            self.path / _META_NAME, json.dumps(meta, indent=2) + "\n"
        )


def _load(entry: CacheEntry) -> object | None:
    try:
        return pickle.loads(entry.payload)
    except Exception:
        return None


def journal_status(path: Path | str) -> JournalStatus:
    """Inspect a checkpoint without opening it for writing: its points
    are the members of the classes whose entry verifies."""
    path = Path(path)
    status = JournalStatus(path=path, exists=path.is_dir())
    if not status.exists:
        return status
    classes: dict[str, int] = {}
    meta_path = path / _META_NAME
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text())
            status.experiment_id = meta.get("experiment_id")
            status.points_expected = meta.get("points_expected")
            classes = meta.get("classes", {})
        except (OSError, json.JSONDecodeError):
            status.damaged.append(_META_NAME)
    cache = ResultCache(path)
    entries = cache.entries()
    status.bytes = sum(size for _, size, _ in entries)
    status.updated_at = max((mtime for mtime, _, _ in entries), default=None)
    status.damaged += sorted(entry.name for entry in cache.damaged())
    status.points = sum(
        n
        for key, n in classes.items()
        if cache.get("point", key) is not None
    )
    return status


#: Version of the status document that ``repro status --json`` and the
#: daemon's ``GET /v1/status`` share.
STATUS_SCHEMA_VERSION = 3


def status_document(
    checkpoint_dir: str | Path,
    experiment_ids: Iterable[str] | None = None,
    jobs: Iterable[Mapping[str, object]] | None = None,
    cas: Mapping[str, object] | None = None,
    service: Mapping[str, object] | None = None,
) -> dict[str, object]:
    """The status document: checkpoint completeness per experiment (what
    ``run --resume`` would pick up), plus the daemon's facts.

    ``repro status --json`` and ``GET /v1/status`` both emit it, so a
    script can poll either. ``experiment_ids=None`` covers every
    registered experiment; ``jobs`` is the daemon's job-manifest dicts
    (the CLI, having no daemon, reports an empty list); ``cas`` is
    :meth:`~repro.resilience.store.ResultCache.stats` output (the CLI
    builds it from disk, the daemon from its live handle — identical
    shape either way); ``service`` is the daemon's admission/drain
    section, ``None`` from the CLI.
    """
    from repro.experiments import EXPERIMENTS

    root = Path(checkpoint_dir)
    ids = list(experiment_ids) if experiment_ids else sorted(EXPERIMENTS)
    return {
        "schema_version": STATUS_SCHEMA_VERSION,
        "checkpoint_dir": str(root),
        "experiments": {
            eid: journal_status(root / eid).to_dict() for eid in ids
        },
        "jobs": list(jobs) if jobs is not None else [],
        "cas": dict(cas) if cas is not None else None,
        "service": dict(service) if service is not None else None,
    }
