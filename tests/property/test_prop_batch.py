"""Property tests: batched execution is bit-identical to serial.

The batching layer (:mod:`repro.batch`) may only ever change wall
time. These properties throw randomized grids at it — personas,
supply voltages, explicit/implicit frequencies, memory-free and
memory-touching workloads — and require the batched outcomes and the
end-to-end sweep records to match the serial path exactly, including
the de-batch paths where timing classes differ.
"""

from __future__ import annotations

import pickle
from dataclasses import replace
from types import SimpleNamespace

import hypothesis.strategies as st
from hypothesis import given, settings

import repro.batch.key as key_module
from repro.batch import batch_key, plan_batches
from repro.experiments.parallel import parallel_simulate
from repro.experiments.sweep import SweepPoint, build_requests, sweep
from repro.isa.instructions import Unit
from repro.isa.program import Instruction, flat_program
from repro.silicon.variation import CHIP1, CHIP2, CHIP3
from repro.system import PitonSystem, run_simulation
from repro.workloads.base import TileProgram
from repro.workloads.microbench import int_tile


def mem_tile() -> TileProgram:
    """A tiny ldx loop: reaches DRAM, so core frequency matters."""
    body = [
        Instruction("ldx", rd=9 + i, rs1=8, imm=i * 8) for i in range(4)
    ]
    body.append(Instruction("bne", rs1=16, target=0))
    return TileProgram(
        programs=[flat_program(body)],
        init_regs={8: 0x1000, 16: 1},
        memory_image={0x1000 + i * 8: i + 1 for i in range(4)},
    )


FACTORIES = {
    "int": lambda tile: int_tile(),
    "mem": lambda tile: mem_tile(),
}

POINTS = st.lists(
    st.builds(
        SweepPoint,
        persona=st.sampled_from([CHIP1, CHIP2, CHIP3]),
        vdd=st.sampled_from([0.85, 0.95, 1.05, 1.15]),
        freq_hz=st.sampled_from([None, 400e6, 700e6]),
    ),
    min_size=2,
    max_size=5,
)


def _requests(points, factory):
    requests = []
    for point in points:
        system = PitonSystem.default(persona=point.persona, seed=0)
        freq = point.resolved_freq_hz()
        system.set_operating_point(point.vdd, point.vdd + 0.05, freq)
        requests.append(
            system.sim_request(
                {0: factory(0)}, warmup_cycles=100, window_cycles=400
            )
        )
    return requests


def _assert_outcomes_identical(batched, serial) -> None:
    assert len(batched) == len(serial)
    for got, want in zip(batched, serial):
        assert got.result == want.result
        # Same events, same float values, same ledger insertion order
        # (power pricing sums in that order, so order is load-bearing).
        assert list(got.ledger.counts.items()) == list(
            want.ledger.counts.items()
        )
        assert list(got.ledger.weights.items()) == list(
            want.ledger.weights.items()
        )


@settings(max_examples=12, deadline=None)
@given(points=POINTS, kind=st.sampled_from(["int", "mem"]))
def test_batched_outcomes_match_serial(points, kind):
    requests = _requests(points, FACTORIES[kind])
    serial = [run_simulation(request) for request in requests]
    batched = list(parallel_simulate(requests, batch=True))
    _assert_outcomes_identical(batched, serial)
    # Every point owns its ledger and result outright: measurement and
    # checking must be free to treat each as if simulated alone.
    assert len({id(o.ledger) for o in batched}) == len(batched)
    assert len({id(o.result) for o in batched}) == len(batched)

    plan = plan_batches(requests)
    if kind == "int":
        # Memory-free workload: frequency can't matter, so the whole
        # grid collapses into one simulation.
        assert plan.n_groups == 1
        assert plan.points_coalesced == len(requests) - 1
    else:
        # Memory-touching workload: distinct frequencies de-batch.
        assert plan.n_groups == len({r.freq_hz for r in requests})
        if plan.n_groups > 1:
            assert plan.debatch_events > 0


@settings(max_examples=6, deadline=None)
@given(points=POINTS, kind=st.sampled_from(["int", "mem"]))
def test_sweep_records_identical_batched_vs_serial(points, kind):
    kwargs = dict(warmup_cycles=100, window_cycles=400)
    factory = FACTORIES[kind]
    baseline = sweep(points, factory, batch=False, **kwargs)
    batched = sweep(points, factory, batch=True, **kwargs)
    assert batched.records == baseline.records


def _reference_plan(requests):
    """``(key bytes, members)`` per group, one :func:`batch_key` call,
    and so one clockless digest, per request."""
    groups: dict[bytes, list[int]] = {}
    for index, request in enumerate(requests):
        groups.setdefault(batch_key(request).to_bytes(), []).append(index)
    return list(groups.items())


@settings(max_examples=10, deadline=None)
@given(points=POINTS)
def test_template_keys_equal_per_request_keys(points):
    """Shared templates (one workload and config per grid) and
    per-point systems (a config and workload dict per request) mixed,
    with one checked request and one with another window that share a
    grid's objects: each group's key bytes and members are what keying
    every request alone gives."""
    # Two clocks on the memory workload, whatever hypothesis draws.
    points = [
        *points, SweepPoint(CHIP2, 0.9, 400e6), SweepPoint(CHIP2, 0.9, 700e6)
    ]
    kwargs = dict(warmup_cycles=100, window_cycles=400)
    requests = []
    for factory in FACTORIES.values():
        grid = build_requests(points, factory, **kwargs)[1]
        requests += grid
        requests += _requests(points, factory)
        requests.append(replace(grid[0], checks=True))
        requests.append(replace(grid[-1], window_cycles=800))
    plan = plan_batches(requests)
    assert [
        (group.key.to_bytes(), list(group.indices)) for group in plan.groups
    ] == _reference_plan(requests)


def test_one_digest_per_template(monkeypatch):
    """A 96-point ``int`` grid and an 8-point ``mem_l2`` grid pickle
    their one template each once."""
    from repro.surrogate.workloads import CALIBRATION_WORKLOADS

    dumps = []
    monkeypatch.setattr(
        key_module,
        "pickle",
        SimpleNamespace(
            dumps=lambda *a, **kw: dumps.append(1) or pickle.dumps(*a, **kw),
            HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
        ),
    )
    for name, personas, vdds, clocks, n_points, n_groups in (
        ("int", (CHIP1, CHIP2, CHIP3), 4, 8, 96, 1),
        ("mem_l2", (CHIP2,), 2, 4, 8, 4),
    ):
        workload, warmup, window = CALIBRATION_WORKLOADS[name].build(True)
        points = [
            SweepPoint(persona, 0.85 + 0.05 * v, (200 + 50 * c) * 1e6)
            for persona in personas
            for v in range(vdds)
            for c in range(clocks)
        ]
        requests = build_requests(
            points, workload.__getitem__, tiles=list(workload),
            warmup_cycles=warmup, window_cycles=window,
        )[1]
        dumps.clear()
        plan = plan_batches(requests)
        assert (plan.n_points, plan.n_groups, len(dumps)) == (
            n_points, n_groups, 1
        )


def test_mem_tile_really_touches_memory():
    from repro.batch import workload_can_touch_memory

    assert workload_can_touch_memory({0: mem_tile()})
    assert not workload_can_touch_memory({0: int_tile()})
    assert any(
        info.unit is Unit.MEM for info in mem_tile().programs[0].infos
    )
