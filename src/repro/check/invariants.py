"""Runtime invariant checkers over the simulator's internal state.

Each checker reads — never mutates — one subsystem and raises
:class:`CheckError` on the first violated invariant, so enabling
checks cannot perturb simulation results: a checked run either
produces bit-identical output to an unchecked one or dies loudly.

The invariants are the properties the experiment pipeline silently
relies on:

* **directory** — MESI safety at the distributed L2 directory (single
  owner, owner/sharer exclusivity, directory/private-state agreement;
  extends :meth:`repro.cache.coherence.DirectoryEntry.check`);
* **store_buffer** — FIFO drain order, occupancy within capacity,
  push/drain conservation, and drain-timer/occupancy agreement;
* **core** — rollback bookkeeping consistency (every rollback is a
  store-buffer or load-miss rollback; issue and stall counts fit in
  the cycle budget);
* **access** — per-operation memory latencies stay positive and
  bounded (a DRAM timeout or a negative-latency bug fails here);
* **mesh** — per-router credit conservation (input queues within
  depth), wormhole lock agreement, global flit conservation
  (injected = ejected + in flight), and forward progress;
* **ledger** — energy-ledger conservation: counts non-negative and
  finite, activity weights within ``[0, count]``, every event priced
  by the calibration and classified by the :mod:`repro.obs` component
  map without loss;
* **thermal** — RC network temperatures bounded by ambient and the
  steady-state ceiling implied by the peak applied power;
* **governor** — closed-loop power-management traces: the power cap is
  never exceeded once the settle window after start/disturbances has
  passed (``gov_cap``), trip/clear hysteresis never actuates twice
  within the advertised dwell (``gov_dwell``), every sample — and
  hence every actuation — lands on the 17 Hz tick grid (``gov_tick``),
  and the energy/work ledgers equal the per-tick sums (``gov_energy``).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.cache.coherence import CoherenceError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.system import CoherentMemorySystem, MemoryAccessOutcome
    from repro.core.multicore import MulticoreEngine
    from repro.core.pipeline import Core
    from repro.governor.controller import GovernedTrace
    from repro.noc.mesh import MeshNetwork
    from repro.power.calibration import Calibration
    from repro.thermal.rc_network import ThermalNetwork
    from repro.util.events import EventLedger


class CheckError(RuntimeError):
    """A runtime invariant was violated.

    ``checker`` names which checker fired — the fault-injection tests
    assert every fault scenario is caught by the intended checker.
    """

    def __init__(self, checker: str, message: str):
        super().__init__(f"[{checker}] {message}")
        self.checker = checker


#: Memory-access outcome levels the timing model can produce.
_ACCESS_LEVELS = frozenset({"l1", "l15", "l2_local", "l2_remote", "mem"})


class CheckSuite:
    """One run's invariant checkers plus pass/violation counters.

    A suite is attached to at most one simulation at a time (pool
    workers build their own; the counters travel back as a plain dict
    on :class:`~repro.system.SimOutcome`). All methods are pure reads
    of the checked object.
    """

    #: Upper bound on a single memory operation's latency in core
    #: cycles. The worst legitimate path (remote L2 miss + recall +
    #: DRAM under heavy MITTS shaping) stays far below this; a wedged
    #: DRAM model or a latency-accounting bug does not.
    ACCESS_LATENCY_BOUND = 1_000_000

    #: Cycles a mesh with flits in flight may go without moving any
    #: flit before the progress checker calls it wedged. The deepest
    #: legitimate contention (wormhole-blocked worst case on a 5x5
    #: mesh) resolves within tens of cycles.
    MESH_STALL_BOUND = 10_000

    #: Absolute slack for floating-point conservation comparisons.
    EPS = 1e-9

    def __init__(self) -> None:
        #: checker name -> number of times it ran (and passed; the
        #: first failure raises).
        self.counts: dict[str, int] = {}
        self.violations = 0

    # ------------------------------------------------------------- plumbing
    def _ran(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def _fail(self, checker: str, message: str) -> None:
        self.violations += 1
        raise CheckError(checker, message)

    def merge_counts(self, counts: dict[str, int]) -> None:
        """Fold a worker suite's counters into this one."""
        for name, n in counts.items():
            self.counts[name] = self.counts.get(name, 0) + n

    def summary(self) -> dict[str, int]:
        """Picklable view of how many checks ran, by checker."""
        return dict(self.counts)

    # ------------------------------------------------------------ directory
    def check_directory(self, memsys: "CoherentMemorySystem") -> None:
        """MESI directory safety across every L2 slice.

        Delegates to the memory system's own eager invariant walk
        (single writer, directory/private agreement, CDR domains) and
        adds structural validation of the directory entries themselves.
        """
        self._ran("directory")
        try:
            memsys.check_invariants()
        except CoherenceError as exc:
            self._fail("directory", str(exc))
        n = memsys.config.tile_count
        for slice_ in memsys.l2:
            for line, entry in slice_.directory.items():
                if entry.owner is not None and not 0 <= entry.owner < n:
                    self._fail(
                        "directory",
                        f"line {line:#x} owner {entry.owner} out of "
                        f"range at slice {slice_.tile_id}",
                    )
                for tile in entry.sharers:
                    if not 0 <= tile < n:
                        self._fail(
                            "directory",
                            f"line {line:#x} sharer {tile} out of "
                            f"range at slice {slice_.tile_id}",
                        )

    # --------------------------------------------------------- store buffer
    def check_store_buffer(self, core: "Core") -> None:
        """FIFO order, occupancy, conservation, timer agreement."""
        self._ran("store_buffer")
        sb = core.store_buffer
        tile = core.tile_id
        if len(sb) > sb.capacity:
            self._fail(
                "store_buffer",
                f"tile {tile}: occupancy {len(sb)} exceeds capacity "
                f"{sb.capacity}",
            )
        if (sb._head_done_at is None) != sb.empty:
            self._fail(
                "store_buffer",
                f"tile {tile}: drain timer/occupancy disagree "
                f"(head_done_at={sb._head_done_at}, len={len(sb)})",
            )
        seqs = [entry.seq for entry in sb._entries]
        if any(b <= a for a, b in zip(seqs, seqs[1:])):
            self._fail(
                "store_buffer",
                f"tile {tile}: FIFO order violated (seqs {seqs})",
            )
        if sb.pushed != sb.drained + len(sb):
            self._fail(
                "store_buffer",
                f"tile {tile}: store conservation violated "
                f"(pushed {sb.pushed} != drained {sb.drained} + "
                f"buffered {len(sb)})",
            )

    def check_core(self, core: "Core") -> None:
        """Rollback and cycle bookkeeping consistency."""
        self._ran("core")
        st = core.stats
        decomposed = st.store_buffer_rollbacks + st.load_miss_rollbacks
        if st.rollbacks != decomposed:
            self._fail(
                "core",
                f"tile {core.tile_id}: rollbacks {st.rollbacks} != "
                f"store-buffer {st.store_buffer_rollbacks} + "
                f"load-miss {st.load_miss_rollbacks}",
            )
        if st.issued + st.stall_cycles > st.cycles:
            self._fail(
                "core",
                f"tile {core.tile_id}: issued {st.issued} + stalls "
                f"{st.stall_cycles} exceed {st.cycles} cycles "
                "(single-issue violated)",
            )

    # --------------------------------------------------------------- access
    def check_access(self, outcome: "MemoryAccessOutcome") -> None:
        """One memory operation's latency/classification sanity."""
        self._ran("access")
        if not 1 <= outcome.latency <= self.ACCESS_LATENCY_BOUND:
            self._fail(
                "access",
                f"memory access latency {outcome.latency} outside "
                f"[1, {self.ACCESS_LATENCY_BOUND}] "
                f"(level={outcome.level!r})",
            )
        if outcome.level not in _ACCESS_LEVELS:
            self._fail(
                "access", f"unknown access level {outcome.level!r}"
            )
        if outcome.hops < 0:
            self._fail("access", f"negative hop count {outcome.hops}")

    # ----------------------------------------------------------------- mesh
    def check_mesh(self, mesh: "MeshNetwork") -> None:
        """Flit/credit conservation and forward progress."""
        self._ran("mesh")
        in_flight = 0
        for router in mesh.routers:
            for port, ip in router.inputs.items():
                depth = len(ip.queue)
                in_flight += depth
                if depth > router.INPUT_QUEUE_DEPTH:
                    self._fail(
                        "mesh",
                        f"router {router.tile_id} input {port.name} "
                        f"holds {depth} flits > depth "
                        f"{router.INPUT_QUEUE_DEPTH} (credit violated)",
                    )
                lock = ip.locked_output
                if (
                    lock is not None
                    and router.output_locked_by[lock] != port
                ):
                    self._fail(
                        "mesh",
                        f"router {router.tile_id}: input {port.name} "
                        f"locked to {lock.name} but output lock points "
                        f"at {router.output_locked_by[lock]}",
                    )
            for out, locked_in in router.output_locked_by.items():
                if (
                    locked_in is not None
                    and router.inputs[locked_in].locked_output != out
                ):
                    self._fail(
                        "mesh",
                        f"router {router.tile_id}: output {out.name} "
                        f"granted to {locked_in.name} which is not "
                        "locked to it",
                    )
        in_flight += sum(len(q) for q in mesh._inject_queues.values())
        in_flight += sum(len(f) for f in mesh._eject_partial.values())
        expected = mesh.flits_injected - mesh.flits_ejected
        if in_flight != expected:
            self._fail(
                "mesh",
                f"flit conservation violated: injected "
                f"{mesh.flits_injected} - ejected {mesh.flits_ejected} "
                f"= {expected}, but {in_flight} flits are in flight",
            )
        if (
            in_flight
            and mesh.now - mesh.last_progress > self.MESH_STALL_BOUND
        ):
            self._fail(
                "mesh",
                f"no flit moved for {mesh.now - mesh.last_progress} "
                f"cycles with {in_flight} flits in flight "
                "(wedged router?)",
            )

    # --------------------------------------------------------------- ledger
    def check_ledger(
        self,
        ledger: "EventLedger",
        calib: "Calibration | None" = None,
    ) -> None:
        """Energy-ledger conservation.

        Counts must be non-negative and finite, activity weights must
        fit in ``[0, count]`` (per-event activities live in [0, 1]),
        no weight may exist without its count, and — when a
        calibration is supplied — every recorded event must be priced.
        The :mod:`repro.obs` component map must also classify every
        event without loss (the per-component rates in the run
        manifest partition the ledger exactly).
        """
        self._ran("ledger")
        from repro.obs.counters import component_rates

        for name, n in ledger.counts.items():
            if not math.isfinite(n) or n < 0:
                self._fail(
                    "ledger", f"event {name!r} has invalid count {n}"
                )
            w = ledger.weights.get(name, 0.0)
            slack = self.EPS * max(1.0, n)
            if not math.isfinite(w) or w < -slack or w > n + slack:
                self._fail(
                    "ledger",
                    f"event {name!r} activity weight {w} outside "
                    f"[0, {n}] (activity must stay in [0, 1])",
                )
            if calib is not None and n > 0 and calib.energy_for(name) is None:
                self._fail(
                    "ledger",
                    f"event {name!r} ({n:g} recorded) is not priced "
                    "by the calibration — its energy would be lost",
                )
        for name in ledger.weights:
            if name not in ledger.counts:
                self._fail(
                    "ledger",
                    f"weight recorded for {name!r} without a count",
                )
        # The obs component map must partition the ledger exactly: the
        # per-component rates in the run manifest account for every
        # recorded event, with none dropped or double-counted.
        rates = component_rates(ledger.counts, 1.0, 1.0)
        classified = sum(r["events"] for r in rates.values())
        total = sum(ledger.counts.values())
        if abs(classified - total) > self.EPS * max(1.0, total):
            self._fail(
                "ledger",
                f"component rates account for {classified:g} of "
                f"{total:g} recorded events (obs map lost some)",
            )

    # -------------------------------------------------------------- thermal
    def check_thermal(self, network: "ThermalNetwork") -> None:
        """RC temperatures bounded by ambient and the power ceiling.

        With non-negative power driven at the die, no node can cool
        below ambient and no node can exceed the steady state of the
        peak power seen so far (the RC ladder has no overshoot).
        """
        self._ran("thermal")
        peak = network.power_peak_w
        if not math.isfinite(peak) or peak < 0:
            self._fail(
                "thermal", f"invalid peak power {peak} W driven at die"
            )
        ceiling = (
            network.ambient_c + peak * network.total_resistance + 1e-6
        )
        floor = network.ambient_c - 1e-6
        for stage, temp in zip(network.stages, network.temps):
            if not math.isfinite(temp) or not floor <= temp <= ceiling:
                self._fail(
                    "thermal",
                    f"node {stage.name!r} at {temp:.3f} C outside "
                    f"[{floor:.3f}, {ceiling:.3f}] C "
                    f"(ambient {network.ambient_c}, peak {peak:.3f} W)",
                )

    # ------------------------------------------------------------- governor
    def check_governor(self, trace: "GovernedTrace") -> None:
        """Closed-loop control invariants over a governed trace.

        Failures carry the specific invariant as the checker name
        (``gov_cap``/``gov_dwell``/``gov_tick``/``gov_energy``) so the
        fault tests can pin which one caught each injected corruption;
        structural problems fail as plain ``governor``.
        """
        self._ran("governor")
        if not math.isfinite(trace.poll_hz) or trace.poll_hz <= 0:
            self._fail(
                "governor", f"invalid poll rate {trace.poll_hz!r} Hz"
            )
        if trace.n_levels < 1:
            self._fail(
                "governor", f"ladder has {trace.n_levels} levels"
            )
        dt = 1.0 / trace.poll_hz
        for i, s in enumerate(trace.samples):
            if not 0 <= s.level < trace.n_levels:
                self._fail(
                    "governor",
                    f"sample {i} commands level {s.level} outside the "
                    f"{trace.n_levels}-step ladder",
                )
            if not math.isfinite(s.power_w) or s.power_w < 0:
                self._fail(
                    "governor",
                    f"sample {i} has invalid power {s.power_w!r} W",
                )
            # Actuation happens only at monitor ticks: every sample
            # timestamp (actuations included) must sit on the k/poll
            # grid. The slack covers float association order, not a
            # real offset.
            expected = i * dt
            if abs(s.t_s - expected) > self.EPS * max(1.0, expected):
                self._fail(
                    "gov_tick",
                    f"sample {i} at t={s.t_s!r} s is off the "
                    f"{trace.poll_hz:g} Hz tick grid "
                    f"(expected {expected!r} s)",
                )
        if trace.cap_w is not None:
            limit = trace.cap_w * (1.0 + self.EPS)
            for i, s in enumerate(trace.samples):
                if s.power_w > limit and not trace.in_settle_window(
                    s.t_s
                ):
                    self._fail(
                        "gov_cap",
                        f"sample {i} (t={s.t_s:.3f} s) draws "
                        f"{s.power_w:.4f} W over the {trace.cap_w:g} W "
                        "cap outside every settle window",
                    )
        if trace.min_dwell_s > 0:
            acts = trace.actuation_times()
            for a, b in zip(acts, acts[1:]):
                if b - a < trace.min_dwell_s - self.EPS:
                    self._fail(
                        "gov_dwell",
                        f"actuations at {a:.4f} s and {b:.4f} s are "
                        f"{b - a:.4f} s apart, inside the "
                        f"{trace.min_dwell_s:g} s dwell (chatter)",
                    )
        energy = 0.0
        work = 0.0
        for s in trace.samples:
            energy += s.power_w * dt
            work += s.freq_hz * dt
        if abs(energy - trace.energy_j) > self.EPS * max(
            1.0, abs(energy)
        ):
            self._fail(
                "gov_energy",
                f"energy ledger {trace.energy_j!r} J != per-tick sum "
                f"{energy!r} J across throttle events",
            )
        if abs(work - trace.work_cycles) > self.EPS * max(
            1.0, abs(work)
        ):
            self._fail(
                "gov_energy",
                f"work ledger {trace.work_cycles!r} cycles != "
                f"per-tick sum {work!r} cycles",
            )

    # --------------------------------------------------------------- engine
    def check_engine(self, engine: "MulticoreEngine") -> None:
        """Everything reachable from a multicore engine, in one sweep."""
        self.check_directory(engine.memsys)
        for core in engine.cores.values():
            self.check_store_buffer(core)
            self.check_core(core)
        self.check_ledger(engine.ledger)
