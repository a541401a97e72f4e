"""Figure 12: NoC energy per flit versus hop count and switching
pattern.

Streams the chipset's dummy invalidation packets (flit-level mesh
simulation) at tiles 0 through 8 hops away for each of the four bit
patterns, measures chip power for each stream, and applies the paper's
EPF equation against the zero-hop baseline. Reports the per-hop
trendline slopes the figure's legend quotes.
"""

from __future__ import annotations

from repro.experiments.context import RunContext, experiment_runner
from repro.experiments.result import ExperimentResult
from repro.power.epf import energy_per_flit, pj_per_hop_trendline
from repro.silicon.variation import CHIP2
from repro.system import PitonSystem
from repro.workloads.noc_tests import (
    PATTERN_CYCLES,
    PATTERN_FLITS,
    PATTERNS,
    run_noc_stream,
)

#: Paper trendline slopes, pJ/hop (Figure 12 legend).
PAPER_SLOPES_PJ = {"NSW": 3.58, "HSW": 11.16, "FSW": 16.68, "FSWA": 16.98}


@experiment_runner
def run(ctx: RunContext) -> ExperimentResult:
    quick = ctx.quick
    hops_sweep = list(range(0, 9, 2)) if quick else list(range(0, 9))
    packets = 40 if quick else 120
    system = PitonSystem.default(
        persona=ctx.resolve_persona(CHIP2),
        seed=9,
        tracer=ctx.trace,
        checks=ctx.checks,
    )

    result = ExperimentResult(
        experiment_id="fig12",
        title="NoC energy per flit vs hops (64-bit flits, one physical "
        "network, one direction)",
        headers=["Pattern"]
        + [f"{h} hops (pJ)" for h in hops_sweep]
        + ["slope (pJ/hop)", "paper slope"],
    )

    for pattern in PATTERNS:
        # Zero-hop baseline: same stream, destination tile 0.
        base = run_noc_stream(
            pattern, 0, packets, system.config, checker=system.checker
        )
        p_base = system.bench.measure_workload(
            base.ledger, base.cycles
        ).core

        epf_pj: list[float] = []
        for hops in hops_sweep:
            # The deterministic 0-hop point is the baseline, remeasured.
            stream = base if hops == 0 else run_noc_stream(
                pattern, hops, packets, system.config,
                checker=system.checker,
            )
            p_hop = system.bench.measure_workload(
                stream.ledger, stream.cycles
            ).core
            epf = energy_per_flit(
                p_hop,
                p_base,
                system.freq_hz,
                pattern_cycles=PATTERN_CYCLES,
                pattern_flits=PATTERN_FLITS,
            )
            epf_pj.append(epf.value / 1e-12)
        slope, _intercept = pj_per_hop_trendline(
            hops_sweep, [e * 1e-12 for e in epf_pj]
        )
        result.rows.append(
            (
                pattern,
                *(round(e, 1) for e in epf_pj),
                round(slope / 1e-12, 2),
                PAPER_SLOPES_PJ[pattern],
            )
        )
        result.series[pattern] = epf_pj
        result.series[f"{pattern}_slope_pj"] = [slope / 1e-12]

    result.paper_reference = dict(PAPER_SLOPES_PJ)
    result.notes.append(
        "expected shape: EPF linear in hops; energy ordered "
        "NSW < HSW < FSW ~ FSWA (wire switching dominates router "
        "overhead); sending a flit across the whole chip costs about "
        "one add instruction"
    )
    return result
