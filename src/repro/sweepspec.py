"""Composable sweep requests: one grid-construction path for everyone.

Grid generation used to be baked into each consumer — the fig11/13/14
runners enumerated their own point tuples, ``repro sweep`` rebuilt its
V/f axes from CLI flags, and nothing could describe a sweep *as data*.
This module is the lift:

* :func:`grid_product` / :func:`expand_grid` are the ordered grid
  enumerators the figure runners now share (order is load-bearing:
  measurements replay serially in grid order, and the golden snapshots
  pin the historical iteration order bit-for-bit);
* :class:`SweepSpec` is a JSON-round-trippable description of a dense
  (workload × persona × VDD × frequency) sweep — the request body the
  ``repro serve`` daemon accepts, the ``--spec FILE`` document
  ``repro sweep`` loads, and the object the CLI flags build;
* :func:`build_requests` (in :mod:`repro.experiments.sweep`) turns the
  spec's points into ordered :class:`~repro.system.SimRequest`\\ s whose
  timing-class keys (:func:`repro.batch.batch_key`) are the identity
  the checkpoint journal and the service's content-addressed result
  cache both key on.

Validation failures raise :class:`SpecError` with the offending field
named and the fix spelled out, mirroring the
``ExperimentResult.from_dict`` schema guard.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.sweep import SweepPoint

SWEEPSPEC_SCHEMA_VERSION = 1

T = TypeVar("T")
U = TypeVar("U")


class SpecError(ValueError):
    """A SweepSpec document failed validation: which field, and why."""

    def __init__(self, spec_field: str, problem: str, hint: str | None = None):
        self.spec_field = spec_field
        self.problem = problem
        self.hint = hint
        message = f"invalid SweepSpec field {spec_field!r}: {problem}"
        if hint:
            message += f" — {hint}"
        super().__init__(message)


# --------------------------------------------------------------- grid helpers
def grid_product(
    where: Callable[[Mapping[str, object]], bool] | None = None,
    **axes: Sequence[object],
) -> list[dict[str, object]]:
    """Ordered cartesian product of named axes (last axis fastest).

    The enumeration order matches the nested-loop order the figure
    runners historically used (``for a in A: for b in B: ...`` with
    axes given in that nesting order), so lifting a runner's inline
    loops onto this helper is bit-identical. ``where`` filters points
    *after* enumeration, preserving the order of the survivors.
    """
    points: list[dict[str, object]] = [{}]
    for name, values in axes.items():
        points = [
            {**point, name: value}
            for point in points
            for value in values
        ]
    if where is not None:
        points = [point for point in points if where(point)]
    return points


def expand_grid(
    outer: Iterable[T], inner: Callable[[T], Iterable[U]]
) -> list[tuple[T, U]]:
    """Ordered (outer, inner) pairs where the inner axis depends on the
    outer value — fig11's shape, where only some instructions sweep
    operand policies."""
    return [
        (o, i) for o in outer for i in inner(o)
    ]


def linspace(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """``count`` evenly spaced values from ``lo`` to ``hi`` inclusive.

    ``count < 2`` collapses to ``(lo,)`` — the historical CLI axis
    behavior, kept so specs built from flags match old grids exactly.
    """
    if count < 2:
        return (lo,)
    return tuple(
        lo + i * (hi - lo) / (count - 1) for i in range(count)
    )


# ------------------------------------------------------------------ the spec
def _known_workloads() -> dict[str, object]:
    from repro.surrogate.workloads import CALIBRATION_WORKLOADS

    return CALIBRATION_WORKLOADS


def _known_personas() -> dict[str, object]:
    from repro.silicon.variation import PERSONAS

    return PERSONAS


def _check_axis(name: str, values: object) -> tuple[float, ...]:
    if isinstance(values, (str, bytes)) or not isinstance(
        values, (list, tuple)
    ):
        raise SpecError(
            name,
            f"expected a list of numbers, got {type(values).__name__}",
            'e.g. "vdd": [0.9, 1.0, 1.1]',
        )
    if not values:
        raise SpecError(name, "axis is empty", "give at least one value")
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SpecError(
                name,
                f"element {i} is {v!r} ({type(v).__name__}), "
                "expected a number",
            )
        if not (v == v and abs(v) != float("inf")):
            raise SpecError(name, f"element {i} is not finite: {v!r}")
        out.append(float(v))
    return tuple(out)


@dataclass(frozen=True)
class SweepSpec:
    """A dense sweep as data: workload × personas × VDD × frequency.

    The point order is fixed — personas outermost, then VDD, then
    frequency (last axis fastest) — so two specs with equal fields
    produce byte-identical request streams, stable timing-class keys,
    and therefore checkpoint-journal and result-cache hits across
    processes, machines, and time.
    """

    workload: str
    personas: tuple[str, ...] = ("chip2",)
    vdd: tuple[float, ...] = (0.9, 1.0, 1.1)
    freq_mhz: tuple[float, ...] = field(
        default_factory=lambda: linspace(200.0, 850.0, 5)
    )
    quick: bool = False

    def __post_init__(self) -> None:
        workloads = _known_workloads()
        if self.workload not in workloads:
            raise SpecError(
                "workload",
                f"unknown workload {self.workload!r}",
                f"known: {', '.join(sorted(workloads))}",
            )
        if not self.personas:
            raise SpecError(
                "personas", "no personas given", "e.g. [\"chip2\"]"
            )
        personas = _known_personas()
        for name in self.personas:
            if name not in personas:
                raise SpecError(
                    "personas",
                    f"unknown persona {name!r}",
                    f"known: {', '.join(sorted(personas))}",
                )
        object.__setattr__(
            self, "personas", tuple(self.personas)
        )
        object.__setattr__(self, "vdd", _check_axis("vdd", self.vdd))
        object.__setattr__(
            self, "freq_mhz", _check_axis("freq_mhz", self.freq_mhz)
        )
        for name, axis, lo, hi in (
            ("vdd", self.vdd, 0.5, 1.5),
            ("freq_mhz", self.freq_mhz, 10.0, 2000.0),
        ):
            for v in axis:
                if not (lo <= v <= hi):
                    raise SpecError(
                        name,
                        f"value {v} outside the plausible range "
                        f"[{lo}, {hi}]",
                        "units are volts / MHz",
                    )

    # ------------------------------------------------------------ identity
    @property
    def experiment_id(self) -> str:
        """Checkpoint-journal id, shared with the historical CLI path."""
        return f"sweep-{self.workload}"

    @property
    def n_points(self) -> int:
        return len(self.personas) * len(self.vdd) * len(self.freq_mhz)

    def digest(self) -> str:
        """sha256 over the canonical JSON document (stable identity)."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ---------------------------------------------------------- construction
    @classmethod
    def from_ranges(
        cls,
        workload: str,
        persona: str = "chip2",
        vdd_min: float = 0.9,
        vdd_max: float = 1.1,
        vdd_points: int = 3,
        freq_min_mhz: float = 200.0,
        freq_max_mhz: float = 850.0,
        freq_points: int = 5,
        quick: bool = False,
    ) -> "SweepSpec":
        """The CLI-flag construction path (``repro sweep`` defaults)."""
        return cls(
            workload=workload,
            personas=(persona,),
            vdd=linspace(vdd_min, vdd_max, vdd_points),
            freq_mhz=linspace(freq_min_mhz, freq_max_mhz, freq_points),
            quick=quick,
        )

    # --------------------------------------------------------------- points
    def points(self) -> "list[SweepPoint]":
        """The ordered grid cells (persona → VDD → frequency)."""
        from repro.experiments.sweep import SweepPoint

        personas = _known_personas()
        return [
            SweepPoint(
                persona=personas[cell["persona"]],
                vdd=cell["vdd"],
                freq_hz=cell["freq_mhz"] * 1e6,
            )
            for cell in grid_product(
                persona=self.personas,
                vdd=self.vdd,
                freq_mhz=self.freq_mhz,
            )
        ]

    # -------------------------------------------------------- serialization
    def to_dict(self) -> dict[str, object]:
        return {
            "schema_version": SWEEPSPEC_SCHEMA_VERSION,
            "workload": self.workload,
            "personas": list(self.personas),
            "vdd": list(self.vdd),
            "freq_mhz": list(self.freq_mhz),
            "quick": self.quick,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: object) -> "SweepSpec":
        if not isinstance(data, Mapping):
            raise SpecError(
                "<document>",
                f"expected a JSON object, got {type(data).__name__}",
            )
        if "schema_version" not in data:
            raise SpecError(
                "schema_version",
                "missing",
                "not a SweepSpec document (or one written before "
                "versioning) — add \"schema_version\": "
                f"{SWEEPSPEC_SCHEMA_VERSION}",
            )
        version = data["schema_version"]
        if version != SWEEPSPEC_SCHEMA_VERSION:
            raise SpecError(
                "schema_version",
                f"unsupported version {version!r}",
                f"this build reads version {SWEEPSPEC_SCHEMA_VERSION} "
                "only",
            )
        known = {
            "schema_version",
            "workload",
            "personas",
            "vdd",
            "freq_mhz",
            "quick",
        }
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                unknown[0],
                "unknown field",
                f"allowed fields: {', '.join(sorted(known))}",
            )
        if "workload" not in data:
            raise SpecError(
                "workload", "missing", 'e.g. "workload": "mem_l2"'
            )
        workload = data["workload"]
        if not isinstance(workload, str):
            raise SpecError(
                "workload",
                f"expected a string, got {type(workload).__name__}",
            )
        personas = data.get("personas", ["chip2"])
        if isinstance(personas, str):
            personas = [personas]
        if not isinstance(personas, (list, tuple)) or not all(
            isinstance(p, str) for p in personas
        ):
            raise SpecError(
                "personas",
                "expected a list of persona names",
                'e.g. ["chip2", "chip3"]',
            )
        quick = data.get("quick", False)
        if not isinstance(quick, bool):
            raise SpecError(
                "quick",
                f"expected true/false, got {quick!r}",
            )
        kwargs: dict[str, object] = {
            "workload": workload,
            "personas": tuple(personas),
            "quick": quick,
        }
        for axis in ("vdd", "freq_mhz"):
            if axis in data:
                kwargs[axis] = _check_axis(axis, data[axis])
        return cls(**kwargs)  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(
                "<document>", f"not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(data)


def load_spec(path: str) -> SweepSpec:
    """Read and validate a serialized SweepSpec file.

    Raises :class:`SpecError` (with the field named) on any problem —
    the shared guard behind ``repro sweep --spec`` and
    ``repro serve --dry-run``.
    """
    from pathlib import Path

    p = Path(path)
    if not p.is_file():
        raise SpecError("<document>", f"no such spec file: {path}")
    return SweepSpec.from_json(p.read_text())


SWEEP_DOC_SCHEMA_VERSION = 1


def run_sweepspec(
    spec: SweepSpec,
    ctx,
    supervision=None,
    seed: int = 0,
):
    """Execute one SweepSpec under a RunContext; returns a SweepResult.

    The single execution path behind ``repro sweep`` (flags or
    ``--spec FILE``) and the daemon's ``POST /v1/sweep``: grid cells
    come from :meth:`SweepSpec.points`, requests from
    :func:`~repro.experiments.sweep.build_requests`, execution from
    :func:`~repro.experiments.sweep.sweep`. ``supervision`` overrides
    the context-derived one (the service passes a CAS-backed journal
    here).
    """
    from repro.experiments.sweep import sweep

    named = _known_workloads()[spec.workload]
    workload, warmup, window = named.build(spec.quick)
    if supervision is None:
        supervision = ctx.supervision(spec.experiment_id)
    return sweep(
        spec.points(),
        lambda tile: workload[tile],
        tiles=list(workload),
        warmup_cycles=warmup,
        window_cycles=window,
        seed=seed,
        jobs=ctx.jobs,
        tracer=ctx.tracer,
        supervision=supervision,
        batch=ctx.batch,
        fidelity=ctx.fidelity_policy(),
    )


def sweep_document(
    spec: SweepSpec,
    result,
    tier: str,
    fidelity: float,
    wall_s: float,
    counters: Mapping[str, int],
    meta: Mapping[str, object],
) -> dict[str, object]:
    """The machine-readable sweep document (``repro sweep --json`` and
    the daemon's ``POST /v1/sweep`` response share this serializer)."""
    from dataclasses import asdict

    doc: dict[str, object] = {
        "schema_version": SWEEP_DOC_SCHEMA_VERSION,
        "workload": spec.workload,
        "tier": tier,
        "fidelity": fidelity,
        "points": spec.n_points,
        "wall_s": wall_s,
        "spec": spec.to_dict(),
        "spec_digest": spec.digest(),
        "surrogate": {
            "hits": counters.get("surrogate_hits", 0),
            "fallbacks": counters.get("surrogate_fallbacks", 0),
            "max_err": meta.get("surrogate_max_err", 0.0),
        },
        "records": [asdict(r) for r in result.records],
    }
    if "cas_hits" in counters or "cas_misses" in counters:
        doc["cache"] = {
            "hits": counters.get("cas_hits", 0),
            "misses": counters.get("cas_misses", 0),
        }
    return doc


def describe_spec(spec: SweepSpec) -> str:
    """Human summary for ``repro serve --dry-run``."""
    lines = [
        f"SweepSpec: workload={spec.workload} quick={spec.quick}",
        f"  personas:  {', '.join(spec.personas)}",
        f"  vdd axis:  {list(spec.vdd)}",
        f"  freq axis: {[round(f, 3) for f in spec.freq_mhz]} MHz",
        f"  points:    {spec.n_points} "
        f"({len(spec.personas)} persona(s) x {len(spec.vdd)} VDD x "
        f"{len(spec.freq_mhz)} clocks)",
        f"  digest:    {spec.digest()}",
        f"  journal:   {spec.experiment_id}",
    ]
    return "\n".join(lines)
