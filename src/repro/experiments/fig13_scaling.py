"""Figure 13: power scaling with core count.

Runs Int, HP, and Hist on 1..25 cores in both one- and two-threads-per-
core configurations (the paper's HP thread-mapping rules included),
measures full-chip power for each point, and fits the per-core
trendline slopes the figure's legend quotes.
"""

from __future__ import annotations

from repro.experiments.parallel import parallel_simulate
from repro.experiments.context import RunContext, experiment_runner
from repro.experiments.result import ExperimentResult
from repro.power.epf import pj_per_hop_trendline
from repro.silicon.variation import CHIP3
from repro.sweepspec import grid_product
from repro.system import PitonSystem
from repro.workloads.base import TileProgram
from repro.workloads.microbench import (
    hist_workload,
    hp_thread_mapping,
    hp_tile,
    int_program,
    int_tile,
    microbench_core_ids,
    PATTERN_A,
    PATTERN_B,
)

#: Paper trendline slopes, mW/core (Figure 13 legend).
PAPER_SLOPES_MW = {
    ("Int", 1): 22.8,
    ("Int", 2): 37.4,
    ("HP", 1): 35.6,
    ("HP", 2): 57.8,
    ("Hist", 1): 14.5,
    ("Hist", 2): 14.4,
}

BENCHMARKS = ("Int", "HP", "Hist")


def build_workload(
    bench: str, core_count: int, threads_per_core: int
) -> dict[int, TileProgram]:
    """Assemble one Figure 13/14 measurement point's workload."""
    cores = microbench_core_ids(core_count)
    if bench == "Int":
        tile = int_tile()
        if threads_per_core == 2:
            tile = TileProgram(
                programs=[int_program(), int_program()],
                init_regs={8: PATTERN_A, 9: PATTERN_B, 31: 1},
            )
        return {c: tile for c in cores}
    if bench == "HP":
        mapping = hp_thread_mapping(cores, threads_per_core)
        return {c: hp_tile(mapping[c], c) for c in cores}
    if bench == "Hist":
        return hist_workload(cores, threads_per_core).tiles
    raise ValueError(f"unknown microbenchmark {bench!r}")


@experiment_runner
def run(ctx: RunContext) -> ExperimentResult:
    quick = ctx.quick
    core_counts = [1, 5, 9, 13, 17, 21, 25] if quick else list(
        range(1, 26, 2)
    )
    window = 3_000 if quick else 6_000
    warmup = 2_000 if quick else 4_000
    system = PitonSystem.default(
        persona=ctx.resolve_persona(CHIP3),
        seed=13,
        tracer=ctx.trace,
        checks=ctx.checks,
    )

    # Simulations fan out across workers; measurements replay serially
    # in grid order, so the result is identical for any ``jobs``.
    requests = (
        system.sim_request(
            build_workload(
                cell["bench"], cell["count"], cell["tpc"]
            ),
            warmup_cycles=warmup,
            window_cycles=window,
        )
        for cell in grid_product(
            bench=BENCHMARKS, tpc=(1, 2), count=core_counts
        )
    )
    outcomes = parallel_simulate(
        requests,
        jobs=ctx.jobs,
        tracer=ctx.trace,
        supervision=ctx.supervision("fig13"),
        batch=ctx.batch,
        fidelity=ctx.fidelity_policy(),
    )

    result = ExperimentResult(
        experiment_id="fig13",
        title="Full-chip power vs core count (chip #3)",
        headers=["Benchmark", "T/C"]
        + [f"{n} cores (mW)" for n in core_counts]
        + ["slope (mW/core)", "paper slope"],
    )
    for bench in BENCHMARKS:
        for tpc in (1, 2):
            powers_mw = []
            for count in core_counts:
                run_ = system.measure_outcome(next(outcomes))
                powers_mw.append(run_.measurement.core.value * 1e3)
            slope_w, _ = pj_per_hop_trendline(
                core_counts, [p * 1e-3 for p in powers_mw]
            )
            result.rows.append(
                (
                    bench,
                    f"{tpc} T/C",
                    *(round(p) for p in powers_mw),
                    round(slope_w * 1e3, 1),
                    PAPER_SLOPES_MW[(bench, tpc)],
                )
            )
            result.series[f"{bench}_{tpc}tc"] = powers_mw
            result.series[f"{bench}_{tpc}tc_slope_mw"] = [slope_w * 1e3]

    result.paper_reference = {
        f"{b}_{t}tc_slope_mw": v for (b, t), v in PAPER_SLOPES_MW.items()
    }
    result.notes.append(
        "expected shape: linear growth; 2 T/C steeper than 1 T/C for "
        "Int and HP but not Hist; ordering Hist < Int < HP; Hist 2 T/C "
        "power flattens or drops at high core counts (lock contention)"
    )
    return result
