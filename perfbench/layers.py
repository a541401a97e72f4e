"""Per-layer tracing by wrapping each layer's public entry points.

The traced run installs wrappers around the calls listed by
:func:`layer_boundaries` (from outside the program: nothing under
``src/`` changes) and charges every host second spent inside an op to
exactly one layer:

* a *timed* boundary pushes a frame, and on return charges its
  duration minus the time of nested frames of other layers to its own
  layer (self time). A call into a layer that is already on top of the
  stack (``drain`` calling ``step``) is only counted, so a layer's
  self time never double counts;
* a *counted* boundary (``Core.step``, ``Floorplan.coord_of``: too hot
  to time without distorting the run) only increments a count, and its
  time stays with whichever frame is on top.

Counts that live in return values (instructions, access levels, the
governed trace) are read by ``on_return`` hooks after the clock stops.

Spans are kept per op in memory and written out when the run ends.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable

_perf = time.perf_counter


@dataclass
class LayerStats:
    """Running totals of one layer."""

    name: str
    #: Every wrapped call, nested and counted ones included.
    calls: int = 0
    #: Outermost entries: timed calls made while another layer (or no
    #: layer) was on top of the stack.
    entries: int = 0
    #: Inclusive time of outermost entries (re-entry through another
    #: layer counts twice; self time never does).
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def snapshot(self) -> dict:
        return {
            "calls": self.calls,
            "entries": self.entries,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "counts": dict(self.counts),
        }


def _delta(after: dict, before: dict) -> dict:
    counts = {
        key: value - before["counts"].get(key, 0)
        for key, value in after["counts"].items()
    }
    return {
        "calls": after["calls"] - before["calls"],
        "entries": after["entries"] - before["entries"],
        "total_s": after["total_s"] - before["total_s"],
        "self_s": after["self_s"] - before["self_s"],
        "counts": {k: v for k, v in counts.items() if v},
    }


class LayerTracer:
    """Installs boundary wrappers and aggregates per-op spans."""

    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        #: Frames ``[layer, child_seconds]`` of the calls in progress.
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._op: tuple[str, int, float, dict] | None = None
        #: One entry per op: id, op count, duration and layer deltas.
        self.spans: list[dict] = []
        self._enabled_pid: int | None = None
        # Pool workers fork from the traced parent: restore the plain
        # entry points there so worker simulations run at full speed.
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------ layers
    def layer(self, name: str) -> LayerStats:
        if name not in self.layers:
            self.layers[name] = LayerStats(name)
        return self.layers[name]

    def count(self, layer: str, key: str, n: float = 1) -> None:
        """Record a count observed outside any wrapper."""
        self.layer(layer).add(key, n)

    # ----------------------------------------------------------- wrappers
    def _timed(
        self,
        stats: LayerStats,
        fn: Callable,
        on_return: Callable | None,
    ) -> Callable:
        stack = self._stack

        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is stats:
                stats.calls += 1
                result = fn(*args, **kwargs)
            else:
                frame = [stats, 0.0]
                stack.append(frame)
                start = _perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = _perf() - start
                    stack.pop()
                    stats.calls += 1
                    stats.entries += 1
                    stats.total_s += elapsed
                    stats.self_s += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
            if on_return is not None:
                on_return(stats, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _counted(stats: LayerStats, fn: Callable, key: str) -> Callable:
        counts = stats.counts

        def wrapper(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(
        self,
        owner: object,
        attr: str,
        layer: str,
        on_return: Callable | None = None,
        counted: str | None = None,
    ) -> None:
        """Wrap ``owner.attr`` (a class method or module function)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        stats = self.layer(layer)
        if counted is not None:
            wrapped = self._counted(stats, original, counted)
        else:
            wrapped = self._timed(stats, original, on_return)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def install(self, boundaries: list[tuple]) -> None:
        for boundary in boundaries:
            owner, attr, layer, *rest = boundary
            options = rest[0] if rest else {}
            self.patch(owner, attr, layer, **options)
        self._enabled_pid = os.getpid()

    def _after_fork(self) -> None:
        if self._enabled_pid is not None and os.getpid() != self._enabled_pid:
            self.uninstall()

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._enabled_pid = None

    # --------------------------------------------------------------- spans
    def _snapshot(self) -> dict[str, dict]:
        return {name: s.snapshot() for name, s in self.layers.items()}

    def begin_op(self, op_id: str, ops: int = 1) -> None:
        self._op = (op_id, ops, _perf(), self._snapshot())

    def end_op(self) -> None:
        """Close the current op's span."""
        end = _perf()
        op_id, ops, start, before = self._op
        self._op = None
        after = self._snapshot()
        layers = {}
        for name, snap in after.items():
            delta = _delta(snap, before.get(name, LayerStats(name).snapshot()))
            if delta["calls"] or delta["counts"]:
                layers[name] = delta
        self.spans.append(
            {"op": op_id, "ops": ops, "wall_s": end - start, "layers": layers}
        )

    def totals(self) -> dict[str, dict]:
        """Per-layer sums over every op span (time outside ops, such as
        the output checks, is left out)."""
        out: dict[str, dict] = {}
        for span in self.spans:
            for name, delta in span["layers"].items():
                agg = out.setdefault(
                    name,
                    {"calls": 0, "entries": 0, "total_s": 0.0,
                     "self_s": 0.0, "counts": {}},
                )
                for key in ("calls", "entries", "total_s", "self_s"):
                    agg[key] += delta[key]
                for key, value in delta["counts"].items():
                    agg["counts"][key] = agg["counts"].get(key, 0) + value
        return out


# ---------------------------------------------------------------- hooks
def _on_engine_run(stats: LayerStats, args, result) -> None:
    stats.add("instructions", result.instructions)
    stats.add("cycles", result.cycles)


def _on_access(stats: LayerStats, args, outcome) -> None:
    if outcome.level in ("l1", "l15"):
        stats.add("private_hits")


def _on_drain(stats: LayerStats, args, result) -> None:
    mesh = args[0]
    stats.add("mesh_cycles", mesh.now)
    stats.add("flit_hops", mesh.total_flit_hops)
    stats.add("router_passes", sum(r.flits_routed for r in mesh.routers))
    stats.add("routers", len(mesh.routers) * mesh.now)
    latencies = [p.latency for p in mesh.delivered if p.latency is not None]
    stats.add("packets", len(latencies))
    stats.add("packet_latency_cycles", sum(latencies))


def _on_scenario(stats: LayerStats, args, trace) -> None:
    stats.add("samples", trace.gov_samples)
    stats.add("actuations", trace.gov_actuations)
    stats.add("cap_violations", trace.cap_violations())


def _on_plan(stats: LayerStats, args, plan) -> None:
    stats.add("groups", plan.n_groups)
    stats.add("points", plan.n_points)


def _on_map(stats: LayerStats, args, results) -> None:
    stats.add(
        "worker_sim_s",
        sum(getattr(r, "sim_wall_s", 0.0) for r in results),
    )


def _on_append(stats: LayerStats, args, result) -> None:
    stats.add("appends")


def _on_rc_step(stats: LayerStats, args, result) -> None:
    stats.add("rc_steps")


def layer_boundaries() -> list[tuple]:
    """``(owner, attribute, layer[, options])`` for every boundary.

    Imported lazily: the tracer module itself must import without the
    program on the path.
    """
    from repro.arch import floorplan
    from repro.board import testboard
    from repro.cache import system as cache_system
    from repro.chip import offchip
    from repro.core import multicore, pipeline
    from repro.experiments import parallel
    from repro.governor import controller, scenarios
    from repro.noc import mesh
    from repro.power import chip_power
    from repro.resilience import checkpoint, pool
    from repro.thermal import dtm, rc_network

    memsys = cache_system.CoherentMemorySystem
    access = {"on_return": _on_access}
    boundaries: list[tuple] = [
        (multicore.MulticoreEngine, "run", "core",
         {"on_return": _on_engine_run}),
        (pipeline.Core, "step", "core", {"counted": "steps"}),
        (memsys, "load", "cache", access),
        (memsys, "store", "cache", access),
        (memsys, "atomic", "cache", access),
        (memsys, "fetch", "cache", access),
        (offchip.OffChipPath, "__call__", "chip"),
        (floorplan.Floorplan, "coord_of", "arch", {"counted": "coord_of"}),
        (mesh.MeshNetwork, "step", "noc"),
        (mesh.MeshNetwork, "inject", "noc"),
        (mesh.MeshNetwork, "drain", "noc", {"on_return": _on_drain}),
        (testboard.ExperimentalSystem, "measure_workload", "board"),
        (testboard.ExperimentalSystem, "measure_idle", "board"),
        (testboard.ExperimentalSystem, "measure_static", "board"),
        (rc_network.ThermalNetwork, "step", "thermal",
         {"on_return": _on_rc_step}),
        (rc_network.ThermalNetwork, "settle", "thermal"),
        (dtm.ThermalThrottleGovernor, "run", "thermal"),
        (dtm.PowerCapGovernor, "run", "thermal"),
        (scenarios, "run_scenario", "governor",
         {"on_return": _on_scenario}),
        (controller.Governor, "run", "governor"),
        (parallel, "plan_batches", "batch", {"on_return": _on_plan}),
        (parallel, "batched_simulate", "batch"),
        (pool.SupervisedPool, "map", "resilience",
         {"on_return": _on_map}),
        # Journal calls run inside ``map``'s result callback: a layer of
        # their own, so their time is not folded into ``map``'s.
        (checkpoint.CheckpointJournal, "append", "journal",
         {"on_return": _on_append}),
        (checkpoint.CheckpointJournal, "get", "journal"),
        (checkpoint.CheckpointJournal, "complete", "journal"),
    ]
    for name in ("hops", "has_turn", "route", "wire_length_mm",
                 "tile_at_hops", "tile_id_of", "max_hops_from",
                 "neighbors", "all_tiles"):
        boundaries.append((floorplan.Floorplan, name, "arch"))
    for name in ("static_power", "idle_power", "event_power",
                 "total_power"):
        boundaries.append((chip_power.ChipPowerModel, name, "power"))
    return boundaries


# --------------------------------------------------------------- metrics
#: ``(metric, unit, better)`` for every per-layer metric, in print order.
PER_LAYER = [
    ("core.self_s", "s", "lower"),
    ("core.instructions", "count", "higher"),
    ("core.cycles", "cycles", "higher"),
    ("core.ns_per_instr", "ns", "lower"),
    ("core.issue_ratio", "ratio", "higher"),
    ("cache.self_s", "s", "lower"),
    ("cache.accesses", "count", "higher"),
    ("cache.private_hit_ratio", "ratio", "higher"),
    ("cache.ns_per_access", "ns", "lower"),
    ("chip.self_s", "s", "lower"),
    ("chip.offchip_accesses", "count", "higher"),
    ("arch.self_s", "s", "lower"),
    ("arch.calls", "count", "lower"),
    ("arch.ns_per_call", "ns", "lower"),
    ("noc.self_s", "s", "lower"),
    ("noc.mesh_cycles", "cycles", "higher"),
    ("noc.flit_hops", "count", "higher"),
    ("noc.packet_latency_cycles", "cycles", "lower"),
    ("noc.ns_per_cycle", "ns", "lower"),
    ("noc.busy_router_ratio", "ratio", "higher"),
    ("power.self_s", "s", "lower"),
    ("power.evals", "count", "lower"),
    ("power.evals_per_measurement", "ratio", "lower"),
    ("board.self_s", "s", "lower"),
    ("board.measurements", "count", "higher"),
    ("board.us_per_measurement", "us", "lower"),
    ("thermal.self_s", "s", "lower"),
    ("thermal.rc_steps", "count", "lower"),
    ("governor.self_s", "s", "lower"),
    ("governor.samples", "count", "higher"),
    ("governor.actuations", "count", "lower"),
    ("governor.cap_violations", "count", "lower"),
    ("batch.self_s", "s", "lower"),
    ("batch.groups", "count", "lower"),
    ("batch.coalesce_ratio", "ratio", "higher"),
    ("resilience.self_s", "s", "lower"),
    ("resilience.map_s", "s", "lower"),
    ("resilience.worker_sim_s", "s", "lower"),
    ("resilience.journal_s", "s", "lower"),
    ("resilience.journal_appends", "count", "lower"),
    ("resilience.retries", "count", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

#: Layers whose self time the per-layer shares are taken over.
SELF_TIME_LAYERS = ("core", "cache", "chip", "arch", "noc", "power",
                    "board", "thermal", "governor", "batch", "resilience",
                    "journal")


def per_pass(totals: dict[str, dict], passes: int) -> dict[str, dict]:
    """Layer totals as per-pass values: calls, entries, total_s, self_s
    and every count, flattened into one row per layer."""
    rows = {}
    for name, agg in totals.items():
        row = {k: agg[k] / passes for k in ("calls", "entries", "total_s",
                                             "self_s")}
        row.update((k, v / passes) for k, v in agg["counts"].items())
        rows[name] = row
    return rows


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer(tracer: LayerTracer, passes: list[dict], setup_s: float) -> dict:
    """Per-pass layer metrics from the traced passes; ``setup_s`` is the
    raw set-up time, like every per-layer time.

    Values are means over traced passes, so counts of a deterministic
    workload read the same whatever number of passes fit the run.
    """
    traced = [p["pass_s"] for p in passes if p["traced"]]
    rows = per_pass(tracer.totals(), len(traced))
    # Calibrated pass times, so host-speed drift between the
    # alternating passes does not read as tracing cost.
    traced_cal = [p["pass_cal_s"] for p in passes if p["traced"]]
    plain_cal = [p["pass_cal_s"] for p in passes if not p["traced"]]

    def get(layer: str, key: str) -> float:
        return rows.get(layer, {}).get(key, 0.0)

    core_i = get("core", "instructions")
    cache_n = get("cache", "calls")
    arch_n = get("arch", "calls") + get("arch", "coord_of")
    cycles = get("noc", "mesh_cycles")
    measurements = get("board", "entries")
    groups = get("batch", "groups")
    layer_self = sum(get(layer, "self_s") for layer in SELF_TIME_LAYERS)
    pass_s = sum(traced) / len(traced)
    values = {
        "core.self_s": get("core", "self_s"),
        "core.instructions": core_i,
        "core.cycles": get("core", "cycles"),
        "core.ns_per_instr": _ratio(get("core", "self_s"), core_i, 1e9),
        "core.issue_ratio": _ratio(core_i, get("core", "steps")),
        "cache.self_s": get("cache", "self_s"),
        "cache.accesses": cache_n,
        "cache.private_hit_ratio": _ratio(get("cache", "private_hits"), cache_n),
        "cache.ns_per_access": _ratio(get("cache", "self_s"), cache_n, 1e9),
        "chip.self_s": get("chip", "self_s"),
        "chip.offchip_accesses": get("chip", "calls"),
        "arch.self_s": get("arch", "self_s"),
        "arch.calls": arch_n,
        "arch.ns_per_call": _ratio(get("arch", "self_s"), arch_n, 1e9),
        "noc.self_s": get("noc", "self_s"),
        "noc.mesh_cycles": cycles,
        "noc.flit_hops": get("noc", "flit_hops"),
        "noc.packet_latency_cycles": _ratio(
            get("noc", "packet_latency_cycles"), get("noc", "packets")
        ),
        "noc.ns_per_cycle": _ratio(get("noc", "self_s"), cycles, 1e9),
        "noc.busy_router_ratio": _ratio(
            get("noc", "router_passes"), get("noc", "routers")
        ),
        "power.self_s": get("power", "self_s"),
        "power.evals": get("power", "calls"),
        "power.evals_per_measurement": _ratio(
            get("power", "calls"), measurements
        ),
        "board.self_s": get("board", "self_s"),
        "board.measurements": measurements,
        "board.us_per_measurement": _ratio(
            get("board", "self_s"), measurements, 1e6
        ),
        "thermal.self_s": get("thermal", "self_s"),
        "thermal.rc_steps": get("thermal", "rc_steps"),
        "governor.self_s": get("governor", "self_s"),
        "governor.samples": get("governor", "samples"),
        "governor.actuations": get("governor", "actuations"),
        "governor.cap_violations": get("governor", "cap_violations"),
        "batch.self_s": get("batch", "self_s"),
        "batch.groups": groups,
        "batch.coalesce_ratio": _ratio(get("batch", "points"), groups),
        "resilience.self_s": get("resilience", "self_s")
        + get("journal", "self_s"),
        "resilience.map_s": get("resilience", "total_s"),
        "resilience.worker_sim_s": get("resilience", "worker_sim_s"),
        "resilience.journal_s": get("journal", "total_s"),
        "resilience.journal_appends": get("journal", "appends"),
        "resilience.retries": get("resilience", "retries"),
        "other.self_s": pass_s - layer_self,
        "trace.wall_s": setup_s + pass_s,
        "trace.overhead_pct": (
            _ratio(sum(traced_cal) / len(traced_cal),
                   sum(plain_cal) / len(plain_cal), 100.0) - 100.0
            if plain_cal else 0.0
        ),
    }
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}
