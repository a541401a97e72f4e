"""Figure 11 (and Table VI): energy per instruction by class and
operand value.

For every instruction class the paper characterizes, run the unrolled
assembly loop on all cores, measure steady-state power, and apply the
paper's EPI equation with the Table VI latency. Instructions with input
operands sweep minimum / random / maximum values.
"""

from __future__ import annotations

from repro.experiments.parallel import parallel_simulate
from repro.experiments.context import RunContext, experiment_runner
from repro.experiments.result import ExperimentResult
from repro.isa.operands import OperandPolicy
from repro.power.epi import energy_per_instruction, subtract_filler_energy
from repro.silicon.variation import CHIP2
from repro.sweepspec import expand_grid
from repro.system import PitonSystem
from repro.util.stats import Measurement
from repro.workloads.epi_tests import (
    FIGURE11_INSTRUCTIONS,
    STX_NOP_PAD,
    build_named_epi_workload,
    has_operand_sweep,
)

POLICIES = (
    OperandPolicy.MINIMUM,
    OperandPolicy.RANDOM,
    OperandPolicy.MAXIMUM,
)

#: Anchors the paper states numerically (Section IV-E/IV-F): the ldx
#: L1-hit energy, and the three-adds-equal-one-ldx observation.
PAPER_ANCHORS = {
    "ldx_random_pj": 286.46,
    "add_random_pj": 286.46 / 3.0,
}


def _build_epi_request(
    system: PitonSystem,
    name: str,
    policy: OperandPolicy,
    cores: int,
    window_cycles: int,
):
    """Assemble one EPI test point as (test, SimRequest)."""
    workload = {}
    test = None
    for tile in range(cores):
        test, tile_program = build_named_epi_workload(
            name, policy, tile, seed=3
        )
        workload[tile] = tile_program
    assert test is not None
    # Warm-up covers the first pass through any memory working set:
    # with all cores' first touches missing to DRAM concurrently, the
    # 20-line-per-core fill takes ~130 queued channel cycles per line.
    info = workload[0].programs[0]
    touches_memory = any(
        i.info.is_load or i.info.is_store for i in info
    )
    warmup = (
        max(12_000, 130 * 20 * len(workload))
        if touches_memory
        else 12_000
    )
    request = system.sim_request(
        workload, warmup_cycles=warmup, window_cycles=window_cycles
    )
    return test, request


def _epi_from_outcome(
    system: PitonSystem,
    test,
    outcome,
    cores: int,
    p_idle: Measurement,
    nop_epi: Measurement | None,
) -> tuple[Measurement, int]:
    """Measure one simulated EPI test and apply the paper's equation."""
    run = system.measure_outcome(outcome)
    epi = energy_per_instruction(
        run.measurement.core,
        p_idle,
        system.freq_hz,
        test.latency_cycles,
        cores=cores,
    )
    if test.fillers_per_target:
        if nop_epi is None:
            raise RuntimeError("nop EPI must be measured before stx (NF)")
        epi = subtract_filler_energy(epi, nop_epi, STX_NOP_PAD)
    return epi, test.latency_cycles


@experiment_runner
def run(ctx: RunContext, cores: int | None = None) -> ExperimentResult:
    quick = ctx.quick
    cores = cores if cores is not None else (4 if quick else 25)
    window = 3_000 if quick else 6_000
    system = PitonSystem.default(
        persona=ctx.resolve_persona(CHIP2),
        seed=5,
        tracer=ctx.trace,
        checks=ctx.checks,
    )

    # One point per (instruction, operand policy), in table order. The
    # simulations fan out; the idle measurement and the per-point
    # measurements below replay serially in this same order, keeping
    # the bench RNG stream identical to a serial run. On the serial
    # path the generator defers each point's workload build and
    # simulation until its measurement comes due (so ``tests`` is
    # always populated before it is read).
    grid = expand_grid(
        (name for name, _ in FIGURE11_INSTRUCTIONS),
        lambda name: (
            POLICIES
            if has_operand_sweep(name)
            else (OperandPolicy.RANDOM,)
        ),
    )
    tests: dict[tuple[str, OperandPolicy], object] = {}

    def requests():
        for name, policy in grid:
            test, request = _build_epi_request(
                system, name, policy, cores, window
            )
            tests[(name, policy)] = test
            yield request

    outcomes = parallel_simulate(
        requests(),
        jobs=ctx.jobs,
        tracer=ctx.trace,
        supervision=ctx.supervision("fig11"),
        batch=ctx.batch,
        fidelity=ctx.fidelity_policy(),
    )

    p_idle = system.measure_idle().core

    result = ExperimentResult(
        experiment_id="fig11",
        title=f"Energy per instruction ({cores} cores, idle-subtracted)",
        headers=[
            "Instruction",
            "Latency (cycles)",
            "EPI min (pJ)",
            "EPI random (pJ)",
            "EPI max (pJ)",
        ],
    )
    nop_epi: Measurement | None = None
    for name, label in FIGURE11_INSTRUCTIONS:
        policies = POLICIES if has_operand_sweep(name) else (
            OperandPolicy.RANDOM,
        )
        epis: dict[OperandPolicy, Measurement] = {}
        latency = 0
        for policy in policies:
            outcome = next(outcomes)
            epis[policy], latency = _epi_from_outcome(
                system,
                tests[(name, policy)],
                outcome,
                cores,
                p_idle,
                nop_epi,
            )
        if name == "nop":
            nop_epi = epis[OperandPolicy.RANDOM]

        def fmt(policy: OperandPolicy) -> object:
            if policy not in epis:
                return "-"
            return round(epis[policy].value / 1e-12, 1)

        result.rows.append(
            (
                label,
                latency,
                fmt(OperandPolicy.MINIMUM),
                fmt(OperandPolicy.RANDOM),
                fmt(OperandPolicy.MAXIMUM),
            )
        )
        result.series[label] = [
            epis[p].value / 1e-12 for p in POLICIES if p in epis
        ]

    result.paper_reference = dict(PAPER_ANCHORS)
    result.notes.append(
        "expected shape: EPI grows with latency class; operand values "
        "move EPI substantially (min < random < max); "
        "3 x EPI(add) ~ EPI(ldx L1 hit); stx (F) > stx (NF) by the "
        "roll-back energy"
    )
    return result
