"""The shared status document: one serializer for CLI and daemon.

``repro status --json`` and the daemon's ``GET /v1/status`` emit the
same schema-versioned document, built here, so a script watching a
campaign can switch between polling the CLI and polling the service
without reparsing: per-experiment checkpoint-journal completeness
(what ``run --resume`` would pick up), content-addressed-store
statistics (entry count, bytes on disk, hit/miss/eviction/scrub
totals), and — when a daemon is answering — its job manifests plus
the service section (drain state, worker/queue shape, admission
counters).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Mapping

STATUS_SCHEMA_VERSION = 3


def status_document(
    checkpoint_dir: str | Path,
    experiment_ids: Iterable[str] | None = None,
    jobs: Iterable[Mapping[str, object]] | None = None,
    cas: Mapping[str, object] | None = None,
    service: Mapping[str, object] | None = None,
) -> dict[str, object]:
    """Checkpoint completeness per experiment, plus daemon facts.

    ``experiment_ids=None`` covers every registered experiment;
    ``jobs`` is the daemon's job-manifest dicts (the CLI, having no
    daemon, reports an empty list); ``cas`` is
    :meth:`~repro.serve.cas.ResultCache.stats` output (the CLI builds
    it from disk, the daemon from its live handle — identical shape
    either way); ``service`` is the daemon's admission/drain section,
    ``None`` from the CLI.
    """
    from repro.experiments import EXPERIMENTS
    from repro.resilience import journal_status

    root = Path(checkpoint_dir)
    ids = (
        list(experiment_ids)
        if experiment_ids
        else sorted(EXPERIMENTS)
    )
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
