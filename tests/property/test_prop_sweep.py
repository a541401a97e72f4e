"""Property: a priced sweep grid equals every point measured alone.

:func:`repro.experiments.sweep.sweep` prices a grid on one bench per
persona and reads every point's monitors in two array passes, one
noise block for all idle draws and the next for all loaded ones. The
reference here measures each point the way a bench built for it
alone would: a fresh :class:`~repro.system.PitonSystem` seeded with
the sweep's seed, ``measure_idle`` and then ``measure_outcome`` of
its own simulation, and the record arithmetic on top. Each reference
measurement is also read again sample by sample through the monitor
classes, so the reference does not rest on the array reduction the
grid shares with it. Records must be equal field for field, for
batched and unbatched grids, on the pool, and for one-point grids,
at seed 0 and at a drawn seed, one sweep after another in one
process.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import example, given, settings

from repro.board.sense import CurrentSenseChannel, SenseResistor, VoltageMonitor
from repro.experiments.context import RunContext
from repro.experiments.sweep import SweepRecord
from repro.silicon.variation import PERSONAS
from repro.surrogate.workloads import CALIBRATION_WORKLOADS
from repro.sweepspec import SweepSpec, run_sweepspec
from repro.system import PitonSystem, run_simulation
from repro.util.rng import RngFactory
from repro.util.stats import Measurement

AXES = SweepSpec(workload="int")


def read_sample_by_sample(rng, settled) -> dict[str, Measurement]:
    """128 polls of a steady draw through each rail's monitors, in the
    bench's order, reduced per rail like ``mean_std``."""
    rails = {
        rail: (
            VoltageMonitor(rng),
            CurrentSenseChannel(SenseResistor(ohms), rng),
        )
        for rail, ohms in (("vdd", 0.005), ("vcs", 0.005), ("vio", 0.010))
    }
    true_w = {
        "vdd": settled.power.vdd_w,
        "vcs": settled.power.vcs_w,
        "vio": settled.power.vio_w,
    }
    samples = {rail: [] for rail in rails}
    for _ in range(128):
        for rail, (vmon, imon) in rails.items():
            volts = settled.voltages[rail]
            v_meas = vmon.read(volts)
            i_meas = imon.read_current_a(true_w[rail] / volts, volts)
            samples[rail].append(v_meas * i_meas)
    return {
        rail: Measurement.from_samples(s) for rail, s in samples.items()
    }


def reference_records(spec: SweepSpec, seed: int) -> list[SweepRecord]:
    workload, warmup, window = CALIBRATION_WORKLOADS[spec.workload].build(
        spec.quick
    )
    records = []
    for point in spec.points():
        freq = point.resolved_freq_hz()
        system = PitonSystem.default(persona=point.persona, seed=seed)
        system.set_operating_point(point.vdd, point.vdd + 0.05, freq)
        idle_m = system.measure_idle()
        request = system.sim_request(
            workload, warmup_cycles=warmup, window_cycles=window
        )
        run = system.measure_outcome(run_simulation(request))

        # The same two measurements, read one sample at a time.
        rng = RngFactory(seed).stream("monitor")
        bench = system.bench
        for got, settled in (
            (idle_m, bench.settled()),
            (run.measurement, bench.settled(run.ledger, run.window_cycles)),
        ):
            want = read_sample_by_sample(rng, settled)
            assert (got.vdd, got.vcs, got.vio) == (
                want["vdd"], want["vcs"], want["vio"]
            )

        idle = idle_m.core.value
        active = run.measurement.core.value - idle
        instructions = max(1, run.result.instructions)
        window_s = run.window_cycles / freq
        records.append(
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
    return records


@st.composite
def specs(draw) -> SweepSpec:
    def subset(values, most):
        return tuple(draw(st.lists(
            st.sampled_from(values), min_size=1, max_size=most, unique=True
        )))

    return SweepSpec(
        workload=draw(st.sampled_from(["int", "mem_l2", "mem_dram"])),
        personas=subset(sorted(PERSONAS), 3),
        vdd=subset(AXES.vdd, 3),
        freq_mhz=subset(AXES.freq_mhz, 4),
        quick=True,
    )


@settings(max_examples=25, deadline=None)
@given(spec=specs(), seed=st.integers(1, 2**32 - 1), batch=st.booleans(),
       jobs=st.just(1))
@example(
    spec=SweepSpec(workload="mem_dram", personas=("chip3",), vdd=(1.1,),
                   freq_mhz=(850.0,), quick=True),
    seed=7, batch=False, jobs=1,
)
@example(
    spec=SweepSpec(workload="mem_l2", personas=("chip2", "chip1"),
                   vdd=(0.9, 1.0), freq_mhz=(200.0, 850.0), quick=True),
    seed=11, batch=False, jobs=2,
)
def test_sweep_records_equal_each_point_measured_alone(
    spec, seed, batch, jobs
):
    context = RunContext(quick=True, jobs=jobs, batch=batch)
    for grid_seed in (0, seed):
        got = run_sweepspec(spec, context, seed=grid_seed).records
        assert got == reference_records(spec, grid_seed)
