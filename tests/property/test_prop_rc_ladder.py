"""Property tests: the RC ladder's cached step equals the per-call one.

``ThermalNetwork.step`` keeps its stage R and C lists and its Euler
substep count between calls, and rebuilds them when a stage is
swapped. ``reference_step`` below derives everything from the stages
on every call, the way the step did before it cached anything. Node
temperatures must match bit for bit after every step, across a
mid-run stage swap that may change the substep count.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.board import MONITOR_POLL_HZ
from repro.thermal.cooling import STOCK_HEATSINK_FAN
from repro.thermal.rc_network import RcStage, ThermalNetwork


def reference_substeps(stages: list[RcStage], dt_s: float) -> int:
    taus = []
    for i, stage in enumerate(stages):
        g = 1.0 / stage.r_c_per_w
        if i > 0:
            g += 1.0 / stages[i - 1].r_c_per_w
        taus.append(stage.c_j_per_c / g)
    return max(1, int(dt_s / (0.1 * min(taus))) + 1)


def reference_step(
    stages: list[RcStage],
    temps: list[float],
    ambient_c: float,
    power_w: float,
    dt_s: float,
) -> list[float]:
    """Node temperatures after one ``dt_s`` step from ``temps``."""
    substeps = reference_substeps(stages, dt_s)
    h = dt_s / substeps
    n = len(stages)
    for _ in range(substeps):
        flows = []
        for i, stage in enumerate(stages):
            downstream = temps[i + 1] if i + 1 < n else ambient_c
            flows.append((temps[i] - downstream) / stage.r_c_per_w)
        new_temps = list(temps)
        for i, stage in enumerate(stages):
            inflow = power_w if i == 0 else flows[i - 1]
            new_temps[i] += h * (inflow - flows[i]) / stage.c_j_per_c
        temps = new_temps
    return temps


def run_both(stages, ambient_c, dt_s, powers, swap_at, swap_index, swap_r):
    """Step a network and the reference side by side, swapping one
    stage's resistance before step ``swap_at``; compare every step."""
    network = ThermalNetwork(stages, ambient_c)
    ref_stages = list(stages)
    ref_temps = list(network.temps)
    for k, power in enumerate(powers):
        if k == swap_at:
            network.set_stage_resistance(swap_index, swap_r)
            old = ref_stages[swap_index]
            ref_stages[swap_index] = RcStage(old.name, swap_r, old.c_j_per_c)
        network.step(power, dt_s)
        ref_temps = reference_step(
            ref_stages, ref_temps, ambient_c, power, dt_s
        )
        assert network.temps == ref_temps


stage_st = st.builds(
    RcStage,
    name=st.just("stage"),
    r_c_per_w=st.floats(0.1, 30.0),
    c_j_per_c=st.floats(0.5, 100.0),
)


@st.composite
def ladders(draw):
    stages = draw(st.lists(stage_st, min_size=1, max_size=4))
    powers = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=10))
    return dict(
        stages=stages,
        ambient_c=draw(st.floats(-10.0, 60.0)),
        dt_s=draw(st.floats(1.0 / 17.0, 2.0)),
        powers=powers,
        swap_at=draw(st.integers(0, len(powers) - 1)),
        swap_index=draw(st.integers(0, len(stages) - 1)),
        swap_r=draw(st.floats(0.1, 30.0)),
    )


@given(ladders())
def test_cached_step_matches_reference(case):
    run_both(**case)


def test_swap_that_changes_the_substep_count():
    # A 0.1 degC/W die stage shortens the die's effective time constant
    # tenfold: a 17 Hz tick needs 8 substeps instead of 1.
    stages = list(STOCK_HEATSINK_FAN.stages)
    dt_s = 1.0 / MONITOR_POLL_HZ
    swapped = [RcStage(stages[0].name, 0.1, stages[0].c_j_per_c)] + stages[1:]
    assert reference_substeps(stages, dt_s) == 1
    assert reference_substeps(swapped, dt_s) == 8
    run_both(
        stages,
        STOCK_HEATSINK_FAN.ambient_c,
        dt_s,
        powers=[3.0] * 4 + [5.0] * 4,
        swap_at=4,
        swap_index=0,
        swap_r=0.1,
    )
