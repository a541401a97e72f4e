"""Generic measurement sweeps over operating points and personas.

The paper's figures are specific sweeps (voltage, core count, hops,
temperature). This utility generalizes the pattern for library users:
define a grid over (persona, VDD, frequency policy, workload), get a
tidy list of measurement records with derived columns — the plumbing
every "characterize X versus Y" study repeats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.arch.params import PitonConfig
from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience import Supervision
    from repro.surrogate.dispatch import FidelityPolicy
from repro.power.vf_curve import VfCurve
from repro.silicon.variation import CHIP2, ChipPersona
from repro.system import PitonSystem
from repro.util.tables import render_table
from repro.workloads.base import TileProgram


@dataclass(frozen=True)
class SweepPoint:
    """One grid cell to measure."""

    persona: ChipPersona
    vdd: float
    freq_hz: float | None = None  # None -> Fmax(VDD) for the persona

    def resolved_freq_hz(self) -> float:
        if self.freq_hz is not None:
            return self.freq_hz
        return VfCurve(self.persona).boot_frequency(self.vdd).fmax_hz


@dataclass
class SweepRecord:
    """Measurement at one grid cell."""

    persona: str
    vdd: float
    freq_mhz: float
    idle_core_mw: float
    active_core_mw: float
    ipc: float
    energy_per_instr_pj: float


@dataclass
class SweepResult:
    records: list[SweepRecord] = field(default_factory=list)

    def column(self, name: str) -> list[float]:
        return [getattr(r, name) for r in self.records]

    def render(self) -> str:
        rows = [
            (
                r.persona,
                r.vdd,
                round(r.freq_mhz, 1),
                round(r.idle_core_mw, 1),
                round(r.active_core_mw, 1),
                round(r.ipc, 2),
                round(r.energy_per_instr_pj, 1),
            )
            for r in self.records
        ]
        return render_table(
            [
                "persona",
                "VDD",
                "f (MHz)",
                "idle (mW)",
                "active (mW)",
                "IPC",
                "E/instr (pJ)",
            ],
            rows,
            title="operating-point sweep",
        )


#: workload_factory(tile) -> TileProgram: one program set per tile.
WorkloadFactory = Callable[[int], TileProgram]


def build_requests(
    points: Iterable[SweepPoint],
    workload_factory: WorkloadFactory,
    tiles: Sequence[int] = (0,),
    warmup_cycles: int = 2_000,
    window_cycles: int = 4_000,
    seed: int = 0,
    tracer: "Tracer | None" = None,
):
    """Build every grid point's bench and simulation request, in order.

    This is the one request-construction path shared by :func:`sweep`
    (and through it ``repro sweep``) and the ``repro serve`` daemon —
    they must all produce byte-identical requests so checkpoint
    journals and the content-addressed result cache key the same
    timing class the same way everywhere.

    Returns ``(systems, requests)``: ``systems[i]`` is
    ``(point, resolved_freq_hz, PitonSystem)`` for the measurement
    replay, ``requests[i]`` the matching picklable
    :class:`~repro.system.SimRequest`.

    One workload and one config serve the grid: one request template.
    """
    workload = {tile: workload_factory(tile) for tile in tiles}
    config = PitonConfig()
    systems: list[tuple[SweepPoint, float, PitonSystem]] = []
    requests = []
    for point in points:
        freq = point.resolved_freq_hz()
        system = PitonSystem.default(
            persona=point.persona, config=config, seed=seed, tracer=tracer
        )
        system.set_operating_point(point.vdd, point.vdd + 0.05, freq)
        systems.append((point, freq, system))
        requests.append(
            system.sim_request(
                workload,
                warmup_cycles=warmup_cycles,
                window_cycles=window_cycles,
            )
        )
    return systems, requests


def sweep(
    points: Iterable[SweepPoint],
    workload_factory: WorkloadFactory,
    tiles: Sequence[int] = (0,),
    warmup_cycles: int = 2_000,
    window_cycles: int = 4_000,
    seed: int = 0,
    jobs: int = 1,
    tracer: "Tracer | None" = None,
    supervision: "Supervision | None" = None,
    batch: bool = True,
    fidelity: "FidelityPolicy | None" = None,
) -> SweepResult:
    """Measure ``workload_factory`` at every grid point.

    Energy per instruction here is total *activity* energy over the
    window divided by instructions issued — the workload-level analogue
    of the paper's per-instruction EPI.

    ``jobs > 1`` fans the per-point simulations across worker
    processes; every point gets its own bench (its own RNG stream
    seeded with ``seed``), and measurements run serially in grid
    order, so results are identical for any ``jobs``. An enabled
    ``tracer`` collects per-point wall times and measurement spans,
    exactly as the registry experiments do. ``supervision`` (see
    :mod:`repro.resilience`) adds retry/deadline handling and
    checkpoint journaling, again without touching results.

    ``batch`` (default on) coalesces grid points sharing a timing
    class into one simulation each (see :mod:`repro.batch`) — the
    common case for this function, since persona and VDD never affect
    the simulation, and the core clock only matters to workloads that
    reach the off-chip path. Results are bit-identical either way.

    ``fidelity`` (from :meth:`RunContext.fidelity_policy`, or a
    :class:`~repro.surrogate.FidelityPolicy` built directly) is the
    two-tier dispatcher: calibrated points within tolerance skip the
    simulator entirely and are priced through the same measurement
    replay. This is the fast path that turns dense V/f grids over
    *distinct* timing classes — the points batching cannot coalesce —
    from hours into seconds.

    The parent hashes the grid's request template once; per point it
    builds a bench, keys the clock and replays both measurements.
    """
    from repro.experiments.parallel import parallel_simulate

    result = SweepResult()
    systems, requests = build_requests(
        points,
        workload_factory,
        tiles=tiles,
        warmup_cycles=warmup_cycles,
        window_cycles=window_cycles,
        seed=seed,
        tracer=tracer,
    )
    outcomes = parallel_simulate(
        requests,
        jobs=jobs,
        tracer=tracer,
        supervision=supervision,
        batch=batch,
        fidelity=fidelity,
    )

    for (point, freq, system), outcome in zip(systems, outcomes):
        idle = system.measure_idle().core.value
        run = system.measure_outcome(outcome)
        active = run.measurement.core.value - idle
        instructions = max(1, run.result.instructions)
        window_s = run.window_cycles / freq
        result.records.append(
            SweepRecord(
                persona=point.persona.name,
                vdd=point.vdd,
                freq_mhz=freq / 1e6,
                idle_core_mw=idle * 1e3,
                active_core_mw=active * 1e3,
                ipc=run.ipc,
                energy_per_instr_pj=active * window_s / instructions
                / 1e-12,
            )
        )
    return result


def voltage_grid(
    vdds: Sequence[float], personas: Sequence[ChipPersona] = (CHIP2,)
) -> list[SweepPoint]:
    """The most common grid: VDD sweep at Fmax, per persona."""
    return [
        SweepPoint(persona=p, vdd=v) for p in personas for v in vdds
    ]
