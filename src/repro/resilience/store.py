"""The one durable result store: simulate once, serve forever.

A :class:`ResultCache` memoizes completed work under a sha256 key
that is stable across processes, one entry per key in a namespace::

    <root>/<namespace>/<key[:2]>/<key>.cas

Two kinds of store are ``ResultCache`` roots:

* a run's checkpoint (:class:`~repro.resilience.CheckpointJournal`,
  ``results/checkpoints/<experiment>/``), retired when the run
  completes;
* the service's store (:mod:`repro.serve.cas`, ``results/cas/``),
  kept for good.

Both hold one pickled :class:`~repro.system.SimOutcome` per simulated
timing class in the ``point`` namespace, keyed by its batch key
(:meth:`repro.batch.BatchKey.to_bytes`). Equal keys give
bit-identical outcomes, so one entry serves every grid point of its
class, in any grid.

Entries are :func:`repro.util.io.frame` records whose header holds
the fidelity tier and error bound::

    RCAS2 | crc32, payload length | tier code, tier error bound | payload

They are written atomically with
:func:`repro.util.io.atomic_write_bytes`, so a torn write can never
serve a half-entry: a frame that fails verification (the CRC covers
the tier header too) is treated as absent, the point simply
re-simulates, and its put overwrites the bad entry with a good one.

Cache policy is tier-aware, the one rule
:func:`repro.surrogate.dispatch.tier_accepts` also applies to
journaled outcomes: a ``sim`` entry (cycle-level) satisfies any
requested tier; a ``fast`` entry (surrogate-served) satisfies
``fast`` always, ``auto`` only within the requested tolerance, and
``sim`` never.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

from repro.util.io import (
    TEMP_PREFIX,
    atomic_write_bytes,
    frame,
    orphaned_temp,
    quarantine,
    unframe,
)

#: Bump when the entry framing changes; unknown frames are misses.
_MAGIC = b"RCAS2\0"
#: The entry header: tier code, tier error bound.
_TIER_HEADER = struct.Struct(">Bd")

_TIER_TO_CODE = {"sim": 0, "fast": 1}
_CODE_TO_TIER = {v: k for k, v in _TIER_TO_CODE.items()}


@dataclass(frozen=True)
class CacheEntry:
    """One verified store entry: payload plus its fidelity provenance."""

    payload: bytes
    tier: str
    tier_err: float


def _normalize_key(key: bytes | str) -> str:
    if isinstance(key, bytes):
        return key.hex()
    return key


class ResultCache:
    """The on-disk content-addressed store (crash-safe, append-only)."""

    #: Quarantined frames land here, renamed so no glob re-reads them.
    QUARANTINE_DIR = "quarantine"

    def __init__(self, root: Path | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        # Lifetime counters for this handle (the daemon keeps one for
        # its whole life, so these are the service totals surfaced on
        # /v1/status; a CLI handle starts from zero).
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.scrub_repairs = 0

    def _entry_path(self, namespace: str, key: bytes | str) -> Path:
        key = _normalize_key(key)
        # Two-character fan-out keeps directories small under dense
        # sweeps (65k points land ~256 per directory).
        return self.root / namespace / key[:2] / f"{key}.cas"

    # ----------------------------------------------------------------- write
    def put(
        self,
        namespace: str,
        key: bytes | str,
        payload: bytes,
        tier: str = "sim",
        tier_err: float = 0.0,
    ) -> Path:
        """Store one entry atomically (temp + fsync + rename)."""
        header = _TIER_HEADER.pack(_TIER_TO_CODE.get(tier, 1), tier_err)
        path = self._entry_path(namespace, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        return atomic_write_bytes(path, frame(_MAGIC, payload, header))

    # ------------------------------------------------------------------ read
    @staticmethod
    def _decode(blob: bytes) -> CacheEntry | None:
        """Verify one frame; ``None`` on any damage (torn, flipped)."""
        record = unframe(blob, _MAGIC, _TIER_HEADER.size)
        if record is None:
            return None
        header, payload = record
        tier_code, tier_err = _TIER_HEADER.unpack(header)
        tier = _CODE_TO_TIER.get(tier_code)
        if tier is None:
            return None
        return CacheEntry(payload=payload, tier=tier, tier_err=tier_err)

    def get(self, namespace: str, key: bytes | str) -> CacheEntry | None:
        """The verified entry, or ``None`` (absent *or* corrupt)."""
        path = self._entry_path(namespace, key)
        try:
            blob = path.read_bytes()
        except OSError:
            return None
        return self._decode(blob)

    @staticmethod
    def satisfies(
        entry: CacheEntry, tier: str, tolerance: float
    ) -> bool:
        """Whether ``entry`` may answer a ``tier`` request
        (:func:`~repro.surrogate.dispatch.tier_accepts`)."""
        from repro.surrogate.dispatch import tier_accepts

        return tier_accepts(entry.tier, entry.tier_err, tier, tolerance)

    def lookup(
        self,
        namespace: str,
        key: bytes | str,
        tier: str = "sim",
        tolerance: float = 0.05,
    ) -> CacheEntry | None:
        """:meth:`get` plus the tier gate in one call.

        Counts a hit/miss on this handle and — on a hit — touches the
        entry's mtime, which is the LRU clock :meth:`gc` evicts by:
        an entry a sweep keeps re-reading stays hot however old its
        write is.
        """
        entry = self.get(namespace, key)
        if entry is None or not self.satisfies(entry, tier, tolerance):
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(self._entry_path(namespace, key))
        except OSError:  # pragma: no cover - racing eviction
            pass
        return entry

    # ----------------------------------------------------------- maintenance
    def entry_count(self, namespace: str | None = None) -> int:
        root = self.root / namespace if namespace else self.root
        if not root.is_dir():
            return 0
        return sum(1 for _ in root.rglob("*.cas"))

    def entries(
        self, pattern: str = "*.cas"
    ) -> list[tuple[float, int, Path]]:
        """Every live entry (or other file matching ``pattern``) as
        ``(mtime, size, path)``; racing-unlink tolerant (a concurrent
        GC or writer is normal operation)."""
        out: list[tuple[float, int, Path]] = []
        for path in self.root.rglob(pattern):
            try:
                st = path.stat()
            except OSError:
                continue
            out.append((st.st_mtime, st.st_size, path))
        return out

    def _sweep_orphans(self) -> int:
        """Delete the temp files of writers that died mid-``put``
        (their pid is gone; a live writer's temp is left alone).
        Returns the bytes still held by live writers' temps."""
        held = 0
        for _mtime, size, path in self.entries(TEMP_PREFIX + "*"):
            if orphaned_temp(path):
                path.unlink(missing_ok=True)
            else:
                held += size
        return held

    def stats(self) -> dict[str, int]:
        """The CAS section of the shared status document. ``bytes``
        counts temp files too: a crashed write's orphan takes disk
        until :meth:`gc` or :meth:`scrub` removes it."""
        entries = self.entries()
        return {
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries)
            + sum(size for _, size, _ in self.entries(TEMP_PREFIX + "*")),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "scrub_repairs": self.scrub_repairs,
        }

    def gc(self, quota_bytes: int) -> int:
        """Evict least-recently-used entries until under ``quota_bytes``.

        Returns how many entries were evicted. Eviction is safe at any
        moment: a reader that loses the race sees a miss and
        re-simulates; a writer re-creates the entry atomically. Orphaned
        temp files go first; live writers' temps count toward the
        total but stay.
        """
        held = self._sweep_orphans()
        entries = self.entries()
        total = held + sum(size for _, size, _ in entries)
        evicted = 0
        for _mtime, size, path in sorted(entries):
            if total <= quota_bytes:
                break
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing unlink
                continue
            total -= size
            evicted += 1
        self.evictions += evicted
        return evicted

    def damaged(self) -> list[Path]:
        """Every entry whose frame fails verification (nothing moves)."""
        out = []
        for _mtime, _size, path in self.entries():
            try:
                blob = path.read_bytes()
            except OSError:
                continue
            if self._decode(blob) is None:
                out.append(path)
        return out

    def scrub(self) -> int:
        """Quarantine every :meth:`damaged` entry.

        A damaged entry is moved to ``quarantine/`` with a
        ``.damaged`` suffix — out of every read path (readers glob
        ``*.cas``) but inspectable — and counted as a repair: the next
        request for that key is a clean miss that overwrites nothing.
        Orphaned temp files are deleted. Returns how many entries were
        quarantined.
        """
        self._sweep_orphans()
        into = self.root / self.QUARANTINE_DIR
        repaired = sum(quarantine(path, into) for path in self.damaged())
        self.scrub_repairs += repaired
        return repaired
