"""Content-addressed result store: simulate once, serve forever.

The store under ``results/cas/`` memoizes completed work under a
sha256 key that is stable across processes. Two namespaces:

* ``point`` — one pickled :class:`~repro.system.SimOutcome` per
  simulated timing class, keyed by its batch key
  (:meth:`repro.batch.BatchKey.to_bytes`, the key the checkpoint
  journal uses) and written/served through :class:`CasJournal` (which
  duck-types :class:`~repro.resilience.CheckpointJournal`, so the grid
  executor absorbs and serves cache entries without learning anything
  new). Equal keys give bit-identical outcomes, so one entry serves
  every grid point of its class, in any grid: a frequency-independent
  class cached at one clock is a hit at every other clock;
* ``run`` — complete ``ExperimentResult`` JSON documents for
  ``POST /v1/run``, returned byte-for-byte on a warm hit.

Entries are :func:`repro.util.io.frame` records whose header holds
the fidelity tier and error bound, written atomically with
:func:`repro.util.io.atomic_write_bytes`, so a torn write can never
serve a half-entry: a frame that fails verification — the CRC covers
the tier header too — is treated as absent and the point simply
re-simulates, and overwrites the bad entry with a good one.

Cache policy is tier-aware, the one rule
:func:`repro.surrogate.dispatch.tier_accepts` also applies to
journaled outcomes: a ``sim`` entry (cycle-level) satisfies any
requested tier; a ``fast`` entry (surrogate-served) satisfies
``fast`` always, ``auto`` only within the requested tolerance, and
``sim`` never.
"""

from __future__ import annotations

import os
import pickle
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.obs.trace import NULL_TRACER, Tracer
from repro.surrogate.dispatch import tier_accepts
from repro.util.io import (
    TEMP_PREFIX,
    atomic_write_bytes,
    frame,
    orphaned_temp,
    quarantine,
    unframe,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import SimOutcome

#: Bump when the entry framing changes; unknown frames are misses.
_MAGIC = b"RCAS2\0"
#: The entry header: tier code, tier error bound.
_TIER_HEADER = struct.Struct(">Bd")

_TIER_TO_CODE = {"sim": 0, "fast": 1}
_CODE_TO_TIER = {v: k for k, v in _TIER_TO_CODE.items()}

#: Where ``repro serve`` keeps the store unless told otherwise.
DEFAULT_CAS_DIR = "results/cas"


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

    def __init__(self, root: Path | str = DEFAULT_CAS_DIR):
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

    def _entries(
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
        for _mtime, size, path in self._entries(TEMP_PREFIX + "*"):
            if orphaned_temp(path):
                path.unlink(missing_ok=True)
            else:
                held += size
        return held

    def stats(self) -> dict[str, int]:
        """The CAS section of the shared status document. ``bytes``
        counts temp files too: a crashed write's orphan takes disk
        until :meth:`gc` or :meth:`scrub` removes it."""
        entries = self._entries()
        return {
            "entries": len(entries),
            "bytes": sum(size for _, size, _ in entries)
            + sum(size for _, size, _ in self._entries(TEMP_PREFIX + "*")),
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
        entries = self._entries()
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

    def scrub(self) -> int:
        """Quarantine every entry whose frame fails verification.

        A damaged entry is moved to ``quarantine/`` with a
        ``.damaged`` suffix — out of every read path (readers glob
        ``*.cas``) but inspectable — and counted as a repair: the next
        request for that key is a clean miss that overwrites nothing.
        Orphaned temp files are deleted. Returns how many entries were
        quarantined.
        """
        self._sweep_orphans()
        repaired = 0
        for _mtime, _size, path in self._entries():
            try:
                blob = path.read_bytes()
            except OSError:
                continue
            if self._decode(blob) is None and quarantine(
                path, self.root / self.QUARANTINE_DIR
            ):
                repaired += 1
        self.scrub_repairs += repaired
        return repaired


@dataclass
class CasJournal:
    """The CAS viewed as a checkpoint journal.

    Duck-types the :class:`~repro.resilience.CheckpointJournal`
    surface the grid executor consumes (``get`` / ``append`` /
    ``write_meta`` / ``complete``), with two deliberate differences:
    entries are keyed *purely* by timing class (grid indices are
    ignored — a class hits from any grid, any shape, one entry per
    class), and ``complete()`` is a no-op (the store is the service's
    memory, not a crash artifact to be retired).

    Tier arbitration happens here, on the frame header, before any
    unpickle: a surrogate-tier entry that the requested tier cannot
    accept is a miss (and will be overwritten by the cycle-level
    outcome the executor then produces). ``cas_hits`` / ``cas_misses``
    land on the tracer's counters, which is how they reach job
    manifests and sweep documents.

    Gets of one class key in a row read, verify and unpickle its entry
    once (a miss is remembered the same way) and return one shared
    object, as :meth:`CheckpointJournal.get` does; the counters still
    count every point. Appending a key forgets what was remembered
    for it.
    """

    cache: ResultCache
    tier: str = "sim"
    tolerance: float = 0.05
    tracer: Tracer = field(default_factory=lambda: NULL_TRACER)
    #: ``(key, outcome or None)`` of the last get.
    _last: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def get(self, index: int, key: bytes) -> "SimOutcome | None":
        if self._last is None or self._last[0] != key:
            self._last = (key, self._load(key))
        outcome = self._last[1]
        self.tracer.count("cas_misses" if outcome is None else "cas_hits")
        return outcome

    def _load(self, key: bytes) -> "SimOutcome | None":
        entry = self.cache.lookup(
            "point", key, tier=self.tier, tolerance=self.tolerance
        )
        if entry is None:
            return None
        try:
            return pickle.loads(entry.payload)
        except Exception:
            return None

    def append(
        self, key: bytes, indices: Sequence[int], outcome: object
    ) -> None:
        if self._last is not None and self._last[0] == key:
            self._last = None
        payload = pickle.dumps(
            outcome, protocol=pickle.HIGHEST_PROTOCOL
        )
        self.cache.put(
            "point",
            key,
            payload,
            tier=getattr(outcome, "tier", "sim"),
            tier_err=getattr(outcome, "tier_err", 0.0),
        )

    def write_meta(self, **_kwargs: object) -> None:
        pass

    def complete(self) -> None:
        pass
