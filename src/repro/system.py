"""Top-level facade: a complete Piton system you can run and measure.

:class:`PitonSystem` binds together a chip persona, the architectural
simulator (cores + coherent memory + off-chip path), the power model,
the cooling stack, and the virtual test board. The standard experiment
flow is::

    system = PitonSystem.default()
    run = system.run_workload({0: [program]}, warmup_cycles=2_000,
                              window_cycles=10_000)
    print(run.measurement.core.format(scale=1e-3), "mW on VDD+VCS")

``run_workload`` mirrors the bench procedure: run to steady state
(warm-up, events discarded), then record events over a measurement
window and "measure" the implied power with the 17 Hz monitors.

Simulation and measurement are deliberately split: the architectural
simulation is a pure function of a :class:`SimRequest` (no randomness
anywhere in core, cache, or chip), while all stochastic state — the
monitor noise stream and the thermal settle — lives in the bench.
:func:`run_simulation` is therefore safe to fan out across worker
processes (see :mod:`repro.experiments.parallel`); replaying the
measurements serially in submission order afterwards produces output
bit-identical to a fully serial run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.arch.params import DEFAULT_MEASUREMENT, MeasurementDefaults, PitonConfig
from repro.board.monitor import RailMeasurement
from repro.board.testboard import ExperimentalSystem
from repro.cache.addressing import AddressMap, Interleave
from repro.cache.system import CoherentMemorySystem
from repro.chip.offchip import OffChipPath
from repro.core.multicore import MulticoreEngine, RunResult
from repro.isa.program import Program
from repro.workloads.base import TileProgram, normalize_workload
from repro.power.calibration import Calibration, DEFAULT_CALIBRATION
from repro.obs.trace import NULL_TRACER, Tracer
from repro.silicon.variation import CHIP2, ChipPersona
from repro.thermal.cooling import STOCK_HEATSINK_FAN, CoolingSetup
from repro.util.events import EventLedger


@dataclass
class WorkloadRun:
    """Everything one measured workload run produced.

    ``engine`` is ``None`` when the simulation ran in a worker process
    (the engine does not travel back across the process boundary).
    """

    measurement: RailMeasurement
    result: RunResult
    ledger: EventLedger
    window_cycles: int
    engine: MulticoreEngine | None

    @property
    def ipc(self) -> float:
        return self.result.ipc


@dataclass(frozen=True)
class SimRequest:
    """A complete, picklable description of one pure simulation.

    Captures everything the architectural simulation depends on —
    workload, window, chip configuration, address interleaving, and the
    core clock (which sets off-chip latencies in core cycles). Chip
    persona, calibration, and RNG seed deliberately do *not* appear:
    they only affect measurement, which stays in the parent process.

    ``window_cycles=None`` means run to completion (finite workloads).
    """

    workload: dict[int, TileProgram]
    config: PitonConfig
    interleave: Interleave
    freq_hz: float
    warmup_cycles: int = 0
    window_cycles: int | None = None
    max_cycles: int = 50_000_000
    execution_drafting: bool = False
    #: Run the :mod:`repro.check` invariant sweeps during simulation.
    #: Checks never mutate state, so outputs are bit-identical either
    #: way; a violation raises instead of corrupting results. The flag
    #: is part of the request so pool workers honour it too.
    checks: bool = False


@dataclass
class SimOutcome:
    """What one simulation produced: the event ledger for the measured
    window and the run counters. ``engine`` survives only in-process.

    ``build_wall_s``/``sim_wall_s`` are wall-clock telemetry stamped by
    :func:`run_simulation`. They are plain floats, so they pickle back
    from pool workers, which is how per-point timings reach the
    parent's tracer (see :mod:`repro.experiments.parallel`); they never
    feed back into simulation or measurement, so results are identical
    whether anyone reads them or not.
    """

    ledger: EventLedger
    result: RunResult
    engine: MulticoreEngine | None = None
    build_wall_s: float = 0.0
    sim_wall_s: float = 0.0
    #: Per-checker pass counts when the request ran with ``checks``
    #: (``None`` otherwise). A plain dict, so it pickles back from
    #: pool workers for the parent suite to merge.
    check_counts: dict[str, int] | None = None
    #: Which fidelity tier produced this outcome: ``"sim"`` for the
    #: cycle-level simulator, ``"fast"`` for the calibrated analytical
    #: surrogate (:mod:`repro.surrogate`). Rides inside checkpoint
    #: journal payloads so ``--resume`` is tier-aware: a cycle-level
    #: resume never silently reuses surrogate points.
    tier: str = "sim"
    #: Calibrated relative error bound of the surrogate prediction
    #: (0.0 for cycle-level outcomes).
    tier_err: float = 0.0


def build_engine(
    config: PitonConfig,
    interleave: Interleave,
    freq_hz: float,
    ledger: EventLedger | None = None,
    execution_drafting: bool = False,
    checker=None,
) -> MulticoreEngine:
    """A fresh multicore engine wired to a full off-chip path.

    ``checker`` (a :class:`repro.check.CheckSuite` or ``None``) is
    installed on both the engine and its memory system.
    """
    ledger = ledger if ledger is not None else EventLedger()
    offchip = OffChipPath(config, ledger)
    offchip.set_core_clock(freq_hz)
    memsys = CoherentMemorySystem(
        config,
        ledger=ledger,
        address_map=AddressMap(config, interleave),
        offchip=offchip,
    )
    memsys.checker = checker
    return MulticoreEngine(
        config,
        ledger=ledger,
        memsys=memsys,
        execution_drafting=execution_drafting,
        checker=checker,
    )


def run_simulation(request: SimRequest) -> SimOutcome:
    """Execute one :class:`SimRequest`. Pure and deterministic.

    This is the function worker processes run: it touches no bench
    state and consumes no randomness, so the outcome is identical
    whether it runs here, in a pool worker, or in any order relative
    to other requests.
    """
    build_start = time.perf_counter()
    checker = None
    if request.checks:
        from repro.check import CheckSuite

        checker = CheckSuite()
    warmup_ledger = EventLedger()
    engine = build_engine(
        request.config,
        request.interleave,
        request.freq_hz,
        ledger=warmup_ledger,
        execution_drafting=request.execution_drafting,
        checker=checker,
    )
    for tile, tp in request.workload.items():
        engine.add_core(tile, tp.programs, tp.init_regs, tp.init_fregs)
        engine.memory.load_image(tp.memory_image)
    sim_start = time.perf_counter()
    build_wall_s = sim_start - build_start

    if request.window_cycles is None:
        result = engine.run(until_done=True, max_cycles=request.max_cycles)
        return SimOutcome(
            ledger=warmup_ledger,
            result=result,
            engine=engine,
            build_wall_s=build_wall_s,
            sim_wall_s=time.perf_counter() - sim_start,
            check_counts=checker.summary() if checker is not None else None,
        )

    if request.warmup_cycles:
        engine.run(cycles=request.warmup_cycles)
    window_ledger = EventLedger()
    _rebind_engine_ledger(engine, window_ledger)
    result = engine.run(cycles=request.window_cycles)
    return SimOutcome(
        ledger=window_ledger,
        result=result,
        engine=engine,
        build_wall_s=build_wall_s,
        sim_wall_s=time.perf_counter() - sim_start,
        check_counts=checker.summary() if checker is not None else None,
    )


def _rebind_engine_ledger(
    engine: MulticoreEngine, ledger: EventLedger
) -> None:
    """Point every component of a live engine at a new ledger."""
    engine.ledger = ledger
    engine.memsys.ledger = ledger
    for slice_ in engine.memsys.l2:
        slice_.ledger = ledger
    offchip = engine.memsys.offchip
    if isinstance(offchip, OffChipPath):
        offchip.ledger = ledger
        offchip.bridge.ledger = ledger
        offchip.dram.ledger = ledger
    for core in engine.cores.values():
        core.ledger = ledger


class PitonSystem:
    """A chip + board + instruments, ready to run experiments."""

    def __init__(
        self,
        persona: ChipPersona = CHIP2,
        config: PitonConfig | None = None,
        calib: Calibration = DEFAULT_CALIBRATION,
        cooling: CoolingSetup = STOCK_HEATSINK_FAN,
        defaults: MeasurementDefaults = DEFAULT_MEASUREMENT,
        seed: int = 0,
        interleave: Interleave = Interleave.LOW,
        tracer: Tracer | None = None,
        checks: bool = False,
    ):
        self.persona = persona
        self.config = config or PitonConfig()
        self.calib = calib
        self.defaults = defaults
        self.interleave = interleave
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.checks = checks
        #: The system-level :class:`repro.check.CheckSuite` when checks
        #: are on: engines built via :meth:`new_engine` share it, pool
        #: workers fold their counters into it, and every measured
        #: ledger is conservation-checked against the calibration.
        self.checker = None
        if checks:
            from repro.check import CheckSuite

            self.checker = CheckSuite()
        self.bench = ExperimentalSystem(
            persona=persona,
            calib=calib,
            cooling=cooling,
            defaults=defaults,
            seed=seed,
        )
        if self.tracer.enabled:
            self.tracer.note("persona", persona.name)
            self.tracer.note("interleave", interleave.name)
            self.tracer.note(
                "operating_point", self._operating_point_note()
            )

    @classmethod
    def default(cls, **kwargs) -> "PitonSystem":
        return cls(**kwargs)

    # ------------------------------------------------------------- simulation
    def new_engine(
        self,
        ledger: EventLedger | None = None,
        execution_drafting: bool = False,
    ) -> MulticoreEngine:
        """A fresh multicore engine wired to a full off-chip path."""
        return build_engine(
            self.config,
            self.interleave,
            self.bench.freq_hz,
            ledger=ledger,
            execution_drafting=execution_drafting,
            checker=self.checker,
        )

    def sim_request(
        self,
        programs_by_tile: dict[int, "TileProgram | list[Program]"],
        warmup_cycles: int = 2_000,
        window_cycles: int = 10_000,
        execution_drafting: bool = False,
    ) -> SimRequest:
        """Capture a steady-state workload run as a :class:`SimRequest`.

        The request snapshots the *current* operating point (the core
        clock); take it after :meth:`set_operating_point`.
        """
        return SimRequest(
            workload=normalize_workload(programs_by_tile),
            config=self.config,
            interleave=self.interleave,
            freq_hz=self.bench.freq_hz,
            warmup_cycles=warmup_cycles,
            window_cycles=window_cycles,
            execution_drafting=execution_drafting,
            checks=self.checks,
        )

    def sim_request_to_completion(
        self,
        programs_by_tile: dict[int, "TileProgram | list[Program]"],
        max_cycles: int = 50_000_000,
    ) -> SimRequest:
        """Capture a run-to-completion workload as a :class:`SimRequest`."""
        return SimRequest(
            workload=normalize_workload(programs_by_tile),
            config=self.config,
            interleave=self.interleave,
            freq_hz=self.bench.freq_hz,
            warmup_cycles=0,
            window_cycles=None,
            max_cycles=max_cycles,
            checks=self.checks,
        )

    def _traced_simulation(self, request: SimRequest) -> SimOutcome:
        """Run one simulation in-process, reporting its wall times.

        The direct (non-pooled) counterpart of the tracer aggregation
        in :mod:`repro.experiments.parallel`: simulation outputs are
        untouched, only the outcome's wall-time stamps are folded into
        the tracer.
        """
        outcome = run_simulation(request)
        tracer = self.tracer
        if tracer.enabled:
            tracer.add_span("build", outcome.build_wall_s)
            tracer.add_span("simulate", outcome.sim_wall_s)
            tracer.point(outcome.sim_wall_s)
        return outcome

    # ----------------------------------------------------- run + measurement
    def measure_outcome(self, outcome: SimOutcome) -> WorkloadRun:
        """Take the bench measurement for a finished simulation.

        This is the only stochastic half of a workload run (monitor
        noise, thermal settle): callers fanning simulations out across
        processes must invoke it serially, in submission order, to
        reproduce the serial RNG stream exactly.
        """
        if self.checker is not None:
            if outcome.check_counts:
                self.checker.merge_counts(outcome.check_counts)
            # The measured ledger must be fully priced by this bench's
            # calibration (the in-simulation sweeps cannot know it).
            self.checker.check_ledger(outcome.ledger, self.calib)
        tracer = self.tracer
        with tracer.span("measure"):
            measurement = self.bench.measure_workload(
                outcome.ledger, outcome.result.cycles
            )
        tracer.observe_ledger(outcome.ledger, outcome.result.cycles)
        return WorkloadRun(
            measurement=measurement,
            result=outcome.result,
            ledger=outcome.ledger,
            window_cycles=outcome.result.cycles,
            engine=outcome.engine,
        )

    def run_workload(
        self,
        programs_by_tile: dict[int, "TileProgram | list[Program]"],
        warmup_cycles: int = 2_000,
        window_cycles: int = 10_000,
        execution_drafting: bool = False,
    ) -> WorkloadRun:
        """Run a steady-state workload and take the bench measurement.

        ``programs_by_tile`` maps tile id -> a :class:`TileProgram` (or
        a bare program list) with one program per hardware thread.
        Workloads are expected to be infinite loops; use
        :meth:`run_to_completion` for finite ones.
        """
        request = self.sim_request(
            programs_by_tile,
            warmup_cycles=warmup_cycles,
            window_cycles=window_cycles,
            execution_drafting=execution_drafting,
        )
        return self.measure_outcome(self._traced_simulation(request))

    def run_to_completion(
        self,
        programs_by_tile: dict[int, "TileProgram | list[Program]"],
        max_cycles: int = 50_000_000,
    ) -> WorkloadRun:
        """Run a finite workload to completion; measures over the whole
        execution (the paper's procedure for the energy studies, where
        microbenchmarks run a fixed number of iterations)."""
        request = self.sim_request_to_completion(
            programs_by_tile, max_cycles=max_cycles
        )
        return self.measure_outcome(self._traced_simulation(request))

    # ------------------------------------------------------------ measurement
    def measure_static(self) -> RailMeasurement:
        return self.bench.measure_static()

    def measure_idle(self) -> RailMeasurement:
        return self.bench.measure_idle()

    def set_operating_point(
        self, vdd: float, vcs: float, freq_hz: float, vio: float = 1.80
    ) -> None:
        self.bench.set_operating_point(vdd, vcs, freq_hz, vio)
        if self.tracer.enabled:
            self.tracer.note(
                "operating_point", self._operating_point_note()
            )

    def _operating_point_note(self) -> dict[str, float]:
        rails = self.bench.board.rail_voltages()
        return {
            "vdd": rails["vdd"],
            "vcs": rails["vcs"],
            "vio": rails["vio"],
            "freq_mhz": self.bench.freq_hz * 1e-6,
        }

    @property
    def freq_hz(self) -> float:
        return self.bench.freq_hz
