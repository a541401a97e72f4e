"""Command-line interface: ``python -m repro``.

Subcommands mirror what a user of the real bench would do:

* ``list [--json]``             — enumerate the reproducible experiments
  (with registry metadata in JSON mode)
* ``run <experiment>``          — regenerate one table/figure;
  ``--json [--out FILE]`` emits the schema-versioned machine-readable
  document (rows, series, paper references, run manifest) instead of
  the ASCII table, and ``--trace`` prints a telemetry digest to stderr
* ``measure [--persona NAME]``  — the Table V static/idle measurements
* ``chart <experiment>``        — render a figure experiment as an
  ASCII chart (line chart over its numeric series); shares the run
  path with ``run``, so ``--quick``/``--jobs`` apply here too
* ``verify [experiments...]``   — golden-run differential harness:
  re-run experiments in quick mode, diff their JSON documents
  against the snapshots committed under ``tests/goldens/`` and check
  them against the paper-anchor table (``--update`` regenerates the
  snapshots, but not one whose anchors miss); exits 1 on any drift
* ``status [experiments...]``   — checkpoint completeness of
  interrupted campaigns (what ``run --resume`` would pick up)
* ``calibrate [workloads...]``  — fit surrogate profiles from
  cycle-level anchor runs (see :mod:`repro.surrogate`); persists
  per-workload profiles with per-metric error bars under
  ``results/surrogate/``
* ``sweep <workload>``          — dense V/f grid over one calibrated
  workload; ``--tier auto`` serves in-tolerance points from the
  analytical surrogate in microseconds instead of simulating them;
  ``--spec FILE`` loads the whole grid from a serialized
  :class:`~repro.sweepspec.SweepSpec` document
* ``serve``                     — the simulation service
  (:mod:`repro.serve`): experiments and sweeps over HTTP, answered
  from a content-addressed result cache when the identical request
  has already been simulated; ``--dry-run SPEC`` validates a spec
  file and exits

Grid subcommands take ``--tier {sim,auto,fast}`` (default ``sim`` —
bit-identical to every release before the surrogate existed) and
``--fidelity REL``, the worst surrogate error bound ``auto`` may
accept.

Every experiment runs through one :class:`~repro.experiments.RunContext`
— no per-runner signature sniffing — with telemetry enabled, so every
result carries a run manifest (span timings, per-point wall times,
per-component event rates, resilience counters).

Grid experiments run fault-tolerant (see :mod:`repro.resilience`):
worker crashes and hangs retry with backoff, completed points are
journaled, and SIGINT/SIGTERM exit with status
:data:`~repro.resilience.EXIT_RESUMABLE` (75) after checkpointing —
``run <exp> --resume`` then skips the already-simulated points and
produces the identical result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.experiments import (
    EXPERIMENTS,
    ExperimentResult,
    RunContext,
    get_spec,
)
from repro.experiments.context import DEFAULT_CHECKPOINT_DIR
from repro.obs import Tracer
from repro.resilience import (
    EXIT_RESUMABLE,
    GridInterrupted,
    journal_status,
    resumable_signals,
)
from repro.silicon.variation import PERSONAS
from repro.util.charts import line_chart
from repro.util.io import atomic_write_text


def _emit(text: str, out: str | None) -> None:
    """Print ``text``, or write it to ``--out FILE`` when given.

    File writes are atomic (temp + fsync + rename): an interrupt can
    never leave a truncated document under the requested name.
    """
    if out is None or out == "-":
        print(text)
    else:
        atomic_write_text(out, text, ensure_newline=True)


def _context_from_args(
    args: argparse.Namespace, jobs: int | None = None
) -> RunContext:
    """One RunContext from the shared run flags (see _add_run_flags)."""
    return RunContext(
        quick=args.quick,
        jobs=jobs if jobs is not None else getattr(args, "jobs", 1),
        tracer=Tracer(),
        out_format="json" if getattr(args, "json", False) else "table",
        checks=getattr(args, "checks", False),
        batch=getattr(args, "batch", True),
        retries=getattr(args, "retries", 2),
        deadline_s=getattr(args, "deadline", None),
        resume=getattr(args, "resume", False),
        checkpoint_dir=getattr(
            args, "checkpoint_dir", DEFAULT_CHECKPOINT_DIR
        ),
        tier=getattr(args, "tier", "sim"),
        fidelity=getattr(args, "fidelity", 0.05),
        profile_dir=getattr(args, "profile_dir", None),
    )


def _tier_summary(tier: str, counters, meta) -> str:
    """One-line surrogate accounting for non-``sim`` runs."""
    hits = counters.get("surrogate_hits", 0)
    fallbacks = counters.get("surrogate_fallbacks", 0)
    rejected = counters.get("points_tier_rejected", 0)
    max_err = meta.get("surrogate_max_err", 0.0)
    line = (
        f"tier={tier}: {hits} surrogate point(s), "
        f"{fallbacks} cycle-level fallback(s), "
        f"worst served error bound {max_err:.4%}"
    )
    if rejected:
        line += f", {rejected} journaled point(s) re-tiered"
    return line


def _run_in_context(args: argparse.Namespace) -> ExperimentResult:
    """The shared execution path for ``run`` and ``chart``.

    Builds one RunContext from the CLI flags and invokes the runner
    uniformly; experiments that never fan out simply ignore ``jobs``
    (the registry's ``supports_jobs`` drives the courtesy note).
    """
    spec = get_spec(args.experiment)
    jobs = getattr(args, "jobs", 1)
    if jobs > 1 and not spec.supports_jobs:
        print(
            f"note: {args.experiment} does not simulate per-point "
            "workloads; --jobs ignored",
            file=sys.stderr,
        )
    return spec.resolve()(_context_from_args(args, jobs=jobs))


def _interrupted(args: argparse.Namespace) -> int:
    """Report a checkpointed interrupt and return the resumable code."""
    ckpt = (
        Path(getattr(args, "checkpoint_dir", DEFAULT_CHECKPOINT_DIR))
        / args.experiment
    )
    hint = (
        f"completed points are checkpointed under {ckpt}; "
        f"re-run with --resume to continue"
        if ckpt.is_dir()
        else "no points completed yet; re-run from scratch"
    )
    print(f"\ninterrupted: {hint}", file=sys.stderr)
    return EXIT_RESUMABLE


def cmd_list(args: argparse.Namespace) -> int:
    if args.json:
        from repro.experiments.registry import experiments_document

        print(json.dumps(experiments_document(), indent=2))
        return 0
    for eid, spec in EXPERIMENTS.items():
        flags = []
        if spec.supports_jobs:
            flags.append("jobs")
        if spec.chartable:
            flags.append("chart")
        suffix = f"  [{', '.join(flags)}]" if flags else ""
        print(f"{eid:20s} {spec.description}{suffix}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    start = time.perf_counter()
    try:
        with resumable_signals():
            result = _run_in_context(args)
    except GridInterrupted:
        return _interrupted(args)
    if args.json:
        _emit(result.to_json(), args.out)
    else:
        _emit(result.render(), args.out)
        print(f"\n[{args.experiment}: {time.perf_counter() - start:.1f}s]")
    if args.tier != "sim" and result.manifest is not None:
        print(
            _tier_summary(
                result.manifest.tier,
                result.manifest.resilience or {},
                result.manifest.extra,
            ),
            file=sys.stderr,
        )
    if args.trace and result.manifest is not None:
        print(result.manifest.summary(), file=sys.stderr)
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    from repro.system import PitonSystem

    persona = PERSONAS[args.persona]
    system = PitonSystem.default(persona=persona)
    static = system.measure_static()
    idle = system.measure_idle()
    print(f"persona: {persona.name}")
    print(f"static (VDD+VCS): {static.core.format(1e-3)} mW")
    print(f"idle   (VDD+VCS): {idle.core.format(1e-3)} mW")
    print(
        "rails at idle: "
        f"VDD {idle.vdd.format(1e-3)} / VCS {idle.vcs.format(1e-3)} / "
        f"VIO {idle.vio.format(1e-3)} mW"
    )
    return 0


def cmd_chart(args: argparse.Namespace) -> int:
    spec = get_spec(args.experiment)
    if spec.chart is None:
        chartable = sorted(
            eid for eid, s in EXPERIMENTS.items() if s.chartable
        )
        print(
            f"no chart mapping for {args.experiment!r}; chartable: "
            f"{chartable}",
            file=sys.stderr,
        )
        return 2
    try:
        with resumable_signals():
            result = _run_in_context(args)
    except GridInterrupted:
        return _interrupted(args)
    series = {
        k: result.series[k]
        for k in spec.chart.series
        if k in result.series
    }
    _emit(
        line_chart(
            series,
            title=f"{result.experiment_id}: {result.title}",
            y_label=spec.chart.y_label,
        ),
        args.out,
    )
    if args.trace and result.manifest is not None:
        print(result.manifest.summary(), file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.check import verify_experiments
    from repro.check.anchors import render_report

    experiment_ids = args.experiments or sorted(EXPERIMENTS)
    unknown = [e for e in experiment_ids if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        return 2
    report = verify_experiments(
        experiment_ids,
        goldens_dir=Path(args.goldens) if args.goldens else None,
        update=args.update,
        jobs=args.jobs,
        rel_tol=args.tolerance,
        checks=args.checks,
        batch=args.batch,
        tier=args.tier,
        fidelity=args.fidelity,
        profile_dir=args.profile_dir,
    )
    for outcome in report.outcomes:
        status = outcome.status.upper()
        print(f"{status:8s} {outcome.experiment_id:20s} "
              f"[{outcome.wall_s:.1f}s]")
        for diff in outcome.diffs:
            print(f"         {diff}")
    anchors = [c for o in report.outcomes for c in o.anchors]
    if anchors:
        print(render_report(anchors))
    if args.report:
        atomic_write_text(
            args.report,
            json.dumps(report.to_dict(), indent=2),
            ensure_newline=True,
        )
    passed = sum(o.ok for o in report.outcomes)
    print(f"{passed}/{len(report.outcomes)} experiments "
          f"{'updated' if args.update else 'verified'}")
    return 0 if report.ok else 1


def cmd_status(args: argparse.Namespace) -> int:
    """Checkpoint completeness: what ``run --resume`` would pick up."""
    root = Path(args.checkpoint_dir)
    experiment_ids = args.experiments or sorted(EXPERIMENTS)
    unknown = [e for e in experiment_ids if e not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}", file=sys.stderr)
        return 2
    if args.json:
        from repro.resilience import status_document

        cas_stats = None
        if Path(args.cas_dir).is_dir():
            from repro.resilience.store import ResultCache

            cas_stats = ResultCache(args.cas_dir).stats()
        print(
            json.dumps(
                status_document(
                    root, experiment_ids, cas=cas_stats
                ),
                indent=2,
            )
        )
        return 0
    found = 0
    for eid in experiment_ids:
        status = journal_status(root / eid)
        if not status.exists and not args.experiments:
            continue  # only surface live checkpoints by default
        found += 1
        if not status.exists:
            print(f"{eid:20s} no checkpoint")
            continue
        expected = (
            f"/{status.points_expected}"
            if status.points_expected is not None
            else ""
        )
        damaged = (
            f", {len(status.damaged)} damaged entr"
            f"{'y' if len(status.damaged) == 1 else 'ies'}"
            if status.damaged
            else ""
        )
        age = (
            f", updated {time.time() - status.updated_at:.0f}s ago"
            if status.updated_at
            else ""
        )
        print(
            f"{eid:20s} {status.points}{expected} point(s) "
            f"checkpointed ({status.bytes} bytes{damaged}{age}) — "
            "resumable with `run --resume`"
        )
    if found == 0:
        print(f"no checkpoints under {root} (nothing to resume)")
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    """Fit surrogate profiles from cycle-level anchor runs."""
    from repro.surrogate import (
        CALIBRATION_WORKLOADS,
        ProfileStore,
        calibrate_named,
        default_anchor_freqs,
    )

    names = args.workloads or sorted(CALIBRATION_WORKLOADS)
    unknown = [n for n in names if n not in CALIBRATION_WORKLOADS]
    if unknown:
        known = ", ".join(sorted(CALIBRATION_WORKLOADS))
        print(
            f"unknown workload(s): {unknown} (known: {known})",
            file=sys.stderr,
        )
        return 2
    store = ProfileStore(args.profile_dir) if args.profile_dir else (
        ProfileStore()
    )
    anchor_freqs = default_anchor_freqs(
        args.anchors, (args.freq_min * 1e6, args.freq_max * 1e6)
    )
    reports = []
    for name in names:
        report = calibrate_named(
            name,
            quick=args.quick,
            anchor_freqs=anchor_freqs,
            store=store,
            safety=args.safety,
        )
        print(report.summary())
        print(f"  profile: {report.path}")
        reports.append(report)
    if args.report:
        atomic_write_text(
            args.report,
            json.dumps(
                {
                    "schema_version": 1,
                    "profiles": [r.to_dict() for r in reports],
                },
                indent=2,
            ),
            ensure_newline=True,
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Dense V/f grid over one named (calibratable) workload.

    The grid is a :class:`~repro.sweepspec.SweepSpec` — built from the
    CLI axis flags, or loaded whole from ``--spec FILE`` — and runs
    through the same execution path the ``repro serve`` daemon uses,
    so a spec produces identical requests (and therefore checkpoint
    and cache hits) no matter which surface submits it.

    This is the surrogate's home turf: on a memory-touching workload
    every distinct clock is its own timing class, so batching cannot
    coalesce the grid and ``--tier sim`` pays one cycle-level
    simulation per frequency. ``--tier auto`` serves every
    in-tolerance point from the calibrated profile instead.
    """
    from repro.board.testboard import ThermalRunaway
    from repro.sweepspec import (
        SpecError,
        SweepSpec,
        load_spec,
        run_sweepspec,
        sweep_document,
    )

    try:
        if args.spec is not None:
            if args.workload is not None:
                print(
                    "give either a workload or --spec FILE, not both",
                    file=sys.stderr,
                )
                return 2
            spec = load_spec(args.spec)
            if args.quick:
                spec = SweepSpec.from_dict(
                    {**spec.to_dict(), "quick": True}
                )
        elif args.workload is None:
            print(
                "a workload (or --spec FILE) is required",
                file=sys.stderr,
            )
            return 2
        else:
            spec = SweepSpec.from_ranges(
                args.workload,
                persona=args.persona,
                vdd_min=args.vdd_min,
                vdd_max=args.vdd_max,
                vdd_points=args.vdd_points,
                freq_min_mhz=args.freq_min,
                freq_max_mhz=args.freq_max,
                freq_points=args.freq_points,
                quick=args.quick,
            )
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Reuse the run-flag plumbing (journaling, retries, tier) with the
    # sweep's own checkpoint id so `sweep --resume` works like `run`.
    args.experiment = spec.experiment_id
    args.quick = spec.quick
    ctx = _context_from_args(args)
    start = time.perf_counter()
    try:
        with resumable_signals():
            result = run_sweepspec(spec, ctx)
    except GridInterrupted:
        return _interrupted(args)
    except ThermalRunaway as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - start
    counters = dict(ctx.trace.resilience)
    meta = dict(ctx.trace.meta)
    if args.json:
        doc = sweep_document(
            spec,
            result,
            tier=args.tier,
            fidelity=args.fidelity,
            wall_s=wall,
            counters=counters,
            meta=meta,
        )
        _emit(json.dumps(doc, indent=2), args.out)
    else:
        _emit(result.render(), args.out)
        print(
            f"\n[sweep {spec.workload}: {spec.n_points} points, "
            f"{wall:.1f}s]"
        )
    if args.tier != "sim":
        print(
            _tier_summary(args.tier, counters, meta), file=sys.stderr
        )
    return 0


def cmd_cas(args: argparse.Namespace) -> int:
    """Inspect/maintain the content-addressed result store."""
    from repro.resilience.store import ResultCache

    root = Path(args.cas_dir)
    if not root.is_dir():
        print(f"no store at {root}", file=sys.stderr)
        return 2
    cache = ResultCache(root)
    if args.action == "stats":
        stats = cache.stats()
        if args.json:
            print(json.dumps(stats, indent=2))
        else:
            print(
                f"{stats['entries']} entr"
                f"{'y' if stats['entries'] == 1 else 'ies'}, "
                f"{stats['bytes']} bytes under {root}"
            )
        return 0
    if args.action == "gc":
        if args.quota_mb is None:
            print("gc needs --quota-mb", file=sys.stderr)
            return 2
        evicted = cache.gc(int(args.quota_mb * 1024 * 1024))
        doc = {"evicted": evicted, **cache.stats()}
        if args.json:
            print(json.dumps(doc, indent=2))
        else:
            print(
                f"evicted {evicted} entr"
                f"{'y' if evicted == 1 else 'ies'}; "
                f"{doc['entries']} left ({doc['bytes']} bytes)"
            )
        return 0
    repaired = cache.scrub()
    doc = {"quarantined": repaired, **cache.stats()}
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(
            f"quarantined {repaired} damaged entr"
            f"{'y' if repaired == 1 else 'ies'}; "
            f"{doc['entries']} verified entries remain"
        )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation service (or just validate a spec file)."""
    from repro.sweepspec import SpecError, describe_spec, load_spec

    if args.dry_run is not None:
        try:
            spec = load_spec(args.dry_run)
        except SpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(describe_spec(spec))
        return 0
    from repro.serve import SimulationService

    service = SimulationService(
        host=args.host,
        port=args.port,
        cas_dir=args.cas_dir,
        checkpoint_dir=args.checkpoint_dir,
        profile_dir=args.profile_dir,
        workers=args.workers,
        jobs_dir=args.jobs_dir,
        queue_depth=args.queue_depth,
        cas_quota_mb=args.cas_quota_mb,
        gc_interval_s=args.gc_interval,
        retries=args.serve_retries,
        deadline_s=args.serve_deadline,
        drain_timeout_s=args.drain_timeout,
    )
    return service.run_blocking()


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every subcommand that executes an experiment."""
    parser.add_argument("--quick", action="store_true")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the simulation fan-out (results "
        "are identical for any value; default 1 = serial; 0 = auto, "
        "one worker per CPU this process may use)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="per-point retry budget for crashed/hung/failed pool "
        "workers before the final in-process attempt (default 2; "
        "retries never change results, only the manifest counters)",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="S",
        help="per-point deadline in seconds before a worker is "
        "declared hung and its point retried (default: derived from "
        "completed-point wall times)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="skip points already journaled by an interrupted run "
        "(exit code 75) instead of re-simulating them; the final "
        "result is identical to an uninterrupted run",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=DEFAULT_CHECKPOINT_DIR,
        metavar="DIR",
        help="where completed points are journaled for --resume "
        f"(default: {DEFAULT_CHECKPOINT_DIR})",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the output to FILE instead of stdout",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="print the run's telemetry digest (spans, event rates) "
        "to stderr",
    )
    parser.add_argument(
        "--checks",
        action="store_true",
        help="run the repro.check invariant checkers during the "
        "simulation (results are bit-identical; a bookkeeping "
        "violation aborts the run loudly)",
    )
    parser.add_argument(
        "--batch",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="coalesce grid points sharing a timing class into one "
        "simulation each (default on; results are bit-identical "
        "either way — --no-batch only changes wall-clock)",
    )
    _add_tier_flags(parser)


def _add_tier_flags(parser: argparse.ArgumentParser) -> None:
    """The two-tier fidelity flags (see :mod:`repro.surrogate`)."""
    parser.add_argument(
        "--tier",
        choices=("sim", "auto", "fast"),
        default="sim",
        help="fidelity tier: 'sim' (default) simulates every point "
        "cycle-level, bit-identical to pre-surrogate releases; "
        "'auto' serves points from the calibrated surrogate when its "
        "persisted error bound fits --fidelity and falls back to the "
        "simulator otherwise; 'fast' serves every calibrated "
        "in-envelope point regardless of bound",
    )
    parser.add_argument(
        "--fidelity",
        type=float,
        default=0.05,
        metavar="REL",
        help="worst surrogate error bound --tier auto may accept, as "
        "a relative error (default 0.05 = 5%%); profiles whose "
        "calibrated bars exceed it simulate cycle-level",
    )
    parser.add_argument(
        "--profile-dir",
        default=None,
        metavar="DIR",
        help="where `repro calibrate` profiles live "
        "(default: results/surrogate)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Piton power/energy characterization reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_ = sub.add_parser("list", help="list experiments")
    list_.add_argument(
        "--json",
        action="store_true",
        help="print registry metadata as JSON",
    )
    list_.set_defaults(func=cmd_list)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    _add_run_flags(run)
    run.add_argument(
        "--json",
        action="store_true",
        help="emit the schema-versioned JSON document (rows, series, "
        "paper references, run manifest) instead of the ASCII table",
    )
    run.set_defaults(func=cmd_run)

    measure = sub.add_parser(
        "measure", help="Table V static/idle measurement"
    )
    measure.add_argument(
        "--persona", choices=sorted(PERSONAS), default="chip2"
    )
    measure.set_defaults(func=cmd_measure)

    verify = sub.add_parser(
        "verify",
        help="diff live quick runs against the committed goldens",
        description="Re-run experiments in quick mode, diff their "
        "JSON documents against the golden snapshots under "
        "tests/goldens/ with per-metric tolerances, and check each "
        "against its rows of the paper-anchor table. Exit status 1 on "
        "any drift or any row out of tolerance.",
    )
    verify.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiments to verify (default: all registered)",
    )
    verify.add_argument(
        "--update",
        action="store_true",
        help="regenerate the golden snapshots instead of diffing "
        "(none whose paper anchors are out of tolerance)",
    )
    verify.add_argument(
        "--goldens",
        default=None,
        metavar="DIR",
        help="golden directory (default: tests/goldens/)",
    )
    verify.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes per experiment (results identical)",
    )
    verify.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="REL",
        help="relative tolerance override for metric comparisons",
    )
    verify.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the JSON verification report to FILE",
    )
    verify.add_argument(
        "--checks",
        action="store_true",
        help="also run the invariant checkers during the live runs",
    )
    verify.add_argument(
        "--batch",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="coalesce timing-equivalent grid points during the live "
        "runs (bit-identical results; the goldens cannot tell)",
    )
    _add_tier_flags(verify)
    verify.set_defaults(func=cmd_verify)

    status = sub.add_parser(
        "status",
        help="checkpoint completeness of interrupted campaigns",
        description="Inspect the checkpoint journals left by "
        "interrupted runs: how many points each campaign completed, "
        "whether any segment is damaged, and what `run --resume` "
        "would pick up.",
    )
    status.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiments to inspect (default: all with checkpoints)",
    )
    status.add_argument(
        "--checkpoint-dir",
        default=DEFAULT_CHECKPOINT_DIR,
        metavar="DIR",
        help=f"journal location (default: {DEFAULT_CHECKPOINT_DIR})",
    )
    status.add_argument(
        "--cas-dir",
        default="results/cas",
        metavar="DIR",
        help="content-addressed result store to report statistics "
        "for in --json output (default: results/cas; skipped when "
        "the directory does not exist)",
    )
    status.add_argument(
        "--json",
        action="store_true",
        help="print the per-experiment journal status as JSON",
    )
    status.set_defaults(func=cmd_status)

    cas = sub.add_parser(
        "cas",
        help="inspect and maintain the content-addressed result store",
        description="Lifecycle tooling for the store `repro serve` "
        "memoizes results in: `stats` prints entry counts and bytes, "
        "`gc` evicts least-recently-used entries until the store fits "
        "a size quota, `scrub` quarantines entries whose CRC framing "
        "fails verification.",
    )
    cas.add_argument(
        "action",
        choices=("stats", "gc", "scrub"),
        help="stats = report; gc = LRU-evict to --quota-mb; "
        "scrub = quarantine damaged frames",
    )
    cas.add_argument(
        "--cas-dir",
        default="results/cas",
        metavar="DIR",
        help="store location (default: results/cas)",
    )
    cas.add_argument(
        "--quota-mb",
        type=float,
        default=None,
        metavar="MB",
        help="size quota for gc (required by the gc action)",
    )
    cas.add_argument(
        "--json",
        action="store_true",
        help="emit the result as JSON",
    )
    cas.set_defaults(func=cmd_cas)

    chart = sub.add_parser("chart", help="ASCII chart of a figure")
    chart.add_argument(
        "experiment",
        choices=sorted(
            eid for eid, spec in EXPERIMENTS.items() if spec.chartable
        ),
    )
    _add_run_flags(chart)
    chart.set_defaults(func=cmd_chart)

    from repro.surrogate.workloads import CALIBRATION_WORKLOADS

    calibrate = sub.add_parser(
        "calibrate",
        help="fit surrogate profiles from cycle-level anchor runs",
        description="Run each workload on the cycle-level simulator "
        "at a handful of anchor clocks, fit the analytical surrogate "
        "profile, validate it against held-out clocks, and persist "
        "the profile with per-metric error bars. Calibrated "
        "workloads are then eligible for `--tier auto/fast` "
        "dispatch on run/sweep/verify.",
    )
    calibrate.add_argument(
        "workloads",
        nargs="*",
        metavar="WORKLOAD",
        help="workloads to calibrate (default: all; known: "
        f"{', '.join(sorted(CALIBRATION_WORKLOADS))})",
    )
    calibrate.add_argument("--quick", action="store_true")
    calibrate.add_argument(
        "--anchors",
        type=int,
        default=4,
        metavar="N",
        help="cycle-level anchor clocks per frequency-dependent "
        "workload (default 4; frequency-independent workloads "
        "always take exactly one)",
    )
    calibrate.add_argument(
        "--freq-min",
        type=float,
        default=150.0,
        metavar="MHZ",
        help="lowest anchor clock in MHz (default 150)",
    )
    calibrate.add_argument(
        "--freq-max",
        type=float,
        default=900.0,
        metavar="MHZ",
        help="highest anchor clock in MHz (default 900)",
    )
    calibrate.add_argument(
        "--safety",
        type=float,
        default=3.0,
        metavar="X",
        help="error-bar safety margin over the worst validation "
        "error (default 3.0)",
    )
    calibrate.add_argument(
        "--profile-dir",
        default=None,
        metavar="DIR",
        help="where to persist profiles (default: results/surrogate)",
    )
    calibrate.add_argument(
        "--report",
        default=None,
        metavar="FILE",
        help="write the JSON calibration report (anchors, error "
        "bars, validation rows) to FILE",
    )
    calibrate.set_defaults(func=cmd_calibrate)

    sweep_ = sub.add_parser(
        "sweep",
        help="dense V/f grid over one calibratable workload",
        description="Sweep one registry workload over a VDD x "
        "frequency grid. Distinct clocks on a memory-touching "
        "workload are distinct timing classes (batching cannot "
        "coalesce them), so `--tier sim` pays one cycle-level "
        "simulation per frequency while `--tier auto` serves "
        "calibrated in-tolerance points from the surrogate.",
    )
    sweep_.add_argument(
        "workload",
        nargs="?",
        default=None,
        choices=sorted(CALIBRATION_WORKLOADS),
    )
    sweep_.add_argument(
        "--spec",
        default=None,
        metavar="FILE",
        help="load the whole grid from a serialized SweepSpec JSON "
        "document instead of the axis flags (validate one without "
        "running via `repro serve --dry-run FILE`)",
    )
    _add_run_flags(sweep_)
    sweep_.add_argument(
        "--persona", choices=sorted(PERSONAS), default="chip2"
    )
    sweep_.add_argument(
        "--vdd-min", type=float, default=0.9, metavar="V"
    )
    sweep_.add_argument(
        "--vdd-max", type=float, default=1.1, metavar="V"
    )
    sweep_.add_argument(
        "--vdd-points", type=int, default=3, metavar="N"
    )
    sweep_.add_argument(
        "--freq-min",
        type=float,
        default=200.0,
        metavar="MHZ",
        help="lowest sweep clock in MHz (default 200; keep inside "
        "the calibrated envelope for surrogate hits)",
    )
    sweep_.add_argument(
        "--freq-max",
        type=float,
        default=850.0,
        metavar="MHZ",
        help="highest sweep clock in MHz (default 850)",
    )
    sweep_.add_argument(
        "--freq-points", type=int, default=5, metavar="N"
    )
    sweep_.add_argument(
        "--json",
        action="store_true",
        help="emit the grid records plus surrogate accounting as JSON",
    )
    sweep_.set_defaults(func=cmd_sweep)

    serve = sub.add_parser(
        "serve",
        help="simulation-as-a-service daemon with a result cache",
        description="Serve the experiment runners over HTTP: POST "
        "/v1/run and /v1/sweep execute (or answer from the "
        "content-addressed result cache under results/cas/), GET "
        "/v1/jobs/<id> reports/streams job progress, GET "
        "/v1/experiments and /v1/status mirror `repro list --json` "
        "and `repro status --json`. Identical in-flight requests "
        "coalesce onto one simulation.",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port (default 8765; 0 = pick a free port)",
    )
    serve.add_argument(
        "--cas-dir",
        default="results/cas",
        metavar="DIR",
        help="content-addressed result store (default: results/cas)",
    )
    serve.add_argument(
        "--checkpoint-dir",
        default=DEFAULT_CHECKPOINT_DIR,
        metavar="DIR",
        help="journal location reported by GET /v1/status "
        f"(default: {DEFAULT_CHECKPOINT_DIR})",
    )
    serve.add_argument(
        "--profile-dir",
        default=None,
        metavar="DIR",
        help="where `repro calibrate` profiles live "
        "(default: results/surrogate)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="concurrent isolated worker processes (default 2)",
    )
    serve.add_argument(
        "--jobs-dir",
        default="results/serve/jobs",
        metavar="DIR",
        help="durable job journal; interrupted jobs recorded here "
        "are recovered on the next start "
        "(default: results/serve/jobs)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        metavar="N",
        help="admitted jobs allowed beyond the running workers "
        "before new simulating requests get 503 + Retry-After "
        "(default 8)",
    )
    serve.add_argument(
        "--cas-quota-mb",
        type=float,
        default=None,
        metavar="MB",
        help="size quota for the result store; a background task "
        "LRU-evicts past it (default: unlimited)",
    )
    serve.add_argument(
        "--gc-interval",
        type=float,
        default=60.0,
        metavar="S",
        help="seconds between background quota-enforcement passes "
        "(default 60)",
    )
    serve.add_argument(
        "--serve-retries",
        type=int,
        default=2,
        metavar="N",
        help="retry budget for a crashed/hung worker process before "
        "the job fails with 500 (default 2)",
    )
    serve.add_argument(
        "--serve-deadline",
        type=float,
        default=None,
        metavar="S",
        help="per-job deadline before a worker is declared hung and "
        "retried (default: none)",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="on SIGTERM, seconds to let running jobs finish before "
        "journaling the stragglers and exiting 75 (default 30)",
    )
    serve.add_argument(
        "--dry-run",
        default=None,
        metavar="SPEC",
        help="validate a SweepSpec file, print its grid summary and "
        "digest, and exit without starting the server",
    )
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main(argv=None))
