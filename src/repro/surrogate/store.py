"""On-disk profile store: sha256-keyed, atomically written.

One JSON file per workload-affinity class under ``results/surrogate/``
(override with ``--profile-dir``), named ``<key>.json`` where ``key``
is the hex clockless request digest — the same content-addressing
scheme the checkpoint journal uses for resume, so a profile can only
ever be found by a request it is valid for.

Reads are forgiving: a missing, damaged, or schema-incompatible file
simply means "no profile", and the dispatcher falls back to the
cycle-level simulator — stale calibration state can slow a sweep down
but can never corrupt it.
"""

from __future__ import annotations

from pathlib import Path

from repro.surrogate.profile import WorkloadProfile
from repro.util.io import atomic_write_text

#: Default profile directory, sibling to ``results/checkpoints``.
DEFAULT_PROFILE_DIR = "results/surrogate"


class ProfileStore:
    """Loads and persists :class:`WorkloadProfile`\\ s by digest key."""

    def __init__(self, root: str | Path = DEFAULT_PROFILE_DIR):
        self.root = Path(root)
        # Cache both hits and misses: a sweep probes the same handful
        # of keys thousands of times.
        self._cache: dict[str, WorkloadProfile | None] = {}

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.json"

    # ---------------------------------------------------------------- access
    def get(self, key: str) -> WorkloadProfile | None:
        if key in self._cache:
            return self._cache[key]
        profile: WorkloadProfile | None
        try:
            profile = WorkloadProfile.from_json(
                self.path_for(key).read_text()
            )
        except (OSError, ValueError, KeyError, TypeError):
            profile = None
        if profile is not None and profile.key != key:
            profile = None  # file renamed/copied under a foreign key
        self._cache[key] = profile
        return profile

    def save(self, profile: WorkloadProfile) -> Path:
        path = self.path_for(profile.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, profile.to_json(), ensure_newline=True)
        self._cache[profile.key] = profile
        return path

    def keys(self) -> list[str]:
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("*.json"))

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None
