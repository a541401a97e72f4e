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
from repro.board.testboard import PitonTestBoard
from repro.obs.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience import Supervision
    from repro.surrogate.dispatch import FidelityPolicy
from repro.power.vf_curve import VfCurve
from repro.silicon.variation import CHIP2, ChipPersona
from repro.system import PitonSystem
from repro.util.rng import RngFactory
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
    """Build every grid point's simulation request, in order.

    This is the one request-construction path shared by :func:`sweep`
    (and through it ``repro sweep``) and the ``repro serve`` daemon —
    they must all produce byte-identical requests so checkpoint
    journals and the content-addressed result cache key the same
    timing class the same way everywhere.

    Returns ``(systems, requests)``: ``systems[i]`` is
    ``(point, resolved_freq_hz, PitonSystem)``, ``requests[i]`` the
    matching picklable :class:`~repro.system.SimRequest`, taken at the
    point's clock. ``systems[i]`` has no bench of its own: the points
    of one persona share one system, which is left at that persona's
    last operating point.

    One workload and one config serve the grid: one request template.
    """
    workload = {tile: workload_factory(tile) for tile in tiles}
    config = PitonConfig()
    benches: dict[ChipPersona, PitonSystem] = {}
    systems: list[tuple[SweepPoint, float, PitonSystem]] = []
    requests = []
    for point in points:
        system = benches.get(point.persona)
        if system is None:
            system = benches[point.persona] = PitonSystem.default(
                persona=point.persona, config=config, seed=seed, tracer=tracer
            )
        freq = point.resolved_freq_hz()
        system.bench.set_operating_point(point.vdd, point.vdd + 0.05, freq)
        systems.append((point, freq, system))
        requests.append(
            system.sim_request(
                workload,
                warmup_cycles=warmup_cycles,
                window_cycles=window_cycles,
            )
        )
    if systems:
        # Notes are last-write-wins: leave the last point's persona and
        # operating point, as a bench built for each point did.
        point, freq, system = systems[-1]
        system.tracer.note("persona", point.persona.name)
        system.set_operating_point(point.vdd, point.vdd + 0.05, freq)
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

    Every point is measured as if on its own bench seeded with
    ``seed``: a fresh monitor stream whose first 128-sample block reads
    the idle die and whose second reads the loaded one. Those are the
    same two blocks for every point, so the grid is priced on one
    bench per persona: each point's die settles (idle, then loaded) as
    its outcome arrives, and then one fresh protocol reads every
    point's idle draw with its first block and every loaded draw with
    its second. ``jobs > 1`` fans the per-point simulations across
    worker processes; results are identical for any ``jobs``. An
    enabled ``tracer`` collects per-point wall times and measurement
    spans, exactly as the registry experiments do. ``supervision``
    (see :mod:`repro.resilience`) adds retry/deadline handling and
    checkpoint journaling, again without touching results.

    ``batch`` (default on) coalesces grid points sharing a timing
    class into one simulation each (see :mod:`repro.batch`) — the
    common case for this function, since persona and VDD never affect
    the simulation, and the core clock only matters to workloads that
    reach the off-chip path. Results are bit-identical either way.

    ``fidelity`` (from :meth:`RunContext.fidelity_policy`, or a
    :class:`~repro.surrogate.FidelityPolicy` built directly) is the
    two-tier dispatcher: calibrated points within tolerance skip the
    simulator entirely and are priced the same way. This is the fast
    path that turns dense V/f grids over *distinct* timing classes —
    the points batching cannot coalesce — from hours into seconds.

    The parent hashes the grid's request template once; per point it
    keys the clock and settles the die twice on floats, and the grid
    reads its monitors in two array passes.
    """
    from repro.experiments.parallel import parallel_simulate

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

    at_idle, under_load, runs = [], [], []
    for (point, freq, system), outcome in zip(systems, outcomes):
        bench = system.bench
        bench.set_operating_point(point.vdd, point.vdd + 0.05, freq)
        ledger, cycles = outcome.ledger, outcome.result.cycles
        with system.tracer.span("measure"):
            at_idle.append(bench.settled())
            under_load.append(bench.settled(ledger, cycles))
        system.tracer.observe_ledger(ledger, cycles)
        runs.append(outcome.result)

    # The two blocks every point's own fresh bench drew, in its order.
    protocol = PitonTestBoard(rngs=RngFactory(seed)).protocol()
    idle_m = protocol.measure_points(
        [s.power for s in at_idle], [s.voltages for s in at_idle]
    )
    load_m = protocol.measure_points(
        [s.power for s in under_load], [s.voltages for s in under_load]
    )
    result = SweepResult()
    for (point, freq, _), run, idle_at, load_at in zip(
        systems, runs, idle_m, load_m
    ):
        idle = idle_at.core.value
        active = load_at.core.value - idle
        instructions = max(1, run.instructions)
        window_s = run.cycles / freq
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
