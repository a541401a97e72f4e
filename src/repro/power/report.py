"""Block-level power breakdown reporting.

The paper's stated purpose for releasing its data is to let researchers
"build detailed and accurate power models for an openly accessible
design". This module is that tool for the reproduction: given a
workload's event ledger and operating point, it attributes the
activity power to architectural blocks (core, L1.5, L2+directory, the
three NoCs, FPU, off-chip I/O) using the same event-to-block map the
structural :mod:`repro.chip.tile` publishes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.power.calibration import Calibration, DEFAULT_CALIBRATION
from repro.power.chip_power import ChipPowerModel, OperatingPoint
from repro.silicon.variation import ChipPersona, TYPICAL
from repro.util.events import EventLedger
from repro.util.tables import render_table

PJ = 1e-12

#: Event-prefix -> reported block. Order matters: first match wins.
BLOCK_OF_PREFIX: tuple[tuple[str, str], ...] = (
    ("instr.fp_", "fpu"),
    ("instr.", "core"),
    ("core.", "core"),
    ("l1d.", "core"),  # the L1D arrays live inside the core block
    ("l1i.", "core"),
    ("l15.", "l15"),
    ("l2.", "l2+directory"),
    ("dir.", "l2+directory"),
    ("noc1.", "noc1"),
    ("noc2.", "noc2"),
    ("noc3.", "noc3"),
    ("mem.", "miss handling"),
    ("chipbridge.", "chip bridge"),
    ("io.", "io pads"),
    ("chipset.", "(chipset, unpowered)"),
    ("dram.", "(dram, excluded)"),
    ("mitts.", "mitts"),
)


def block_of_event(event: str) -> str:
    for prefix, block in BLOCK_OF_PREFIX:
        if event.startswith(prefix):
            return block
    return "other"


@dataclass
class BlockPower:
    """One block's share of a power report."""

    block: str
    active_w: float
    events: int


class PowerReport:
    """Attribute measured power to architectural blocks."""

    def __init__(
        self,
        persona: ChipPersona = TYPICAL,
        calib: Calibration = DEFAULT_CALIBRATION,
    ):
        self.persona = persona
        self.calib = calib
        self.model = ChipPowerModel(persona, calib)

    # ------------------------------------------------------------- activity
    def active_breakdown(
        self,
        ledger: EventLedger,
        window_cycles: float,
        op: OperatingPoint,
    ) -> list[BlockPower]:
        """Per-block activity power, descending."""
        if window_cycles <= 0:
            raise ValueError("window must be positive")
        window_s = window_cycles / op.freq_hz
        s_vdd = (op.vdd / self.calib.vdd_nom) ** 2
        s_vcs = (op.vcs / self.calib.vcs_nom) ** 2
        s_vio = (op.vio / self.calib.vio_nom) ** 2
        joules: dict[str, float] = {}
        counts: dict[str, int] = {}
        for event, count in ledger.counts.items():
            price = self.calib.energy_for(event)
            if price is None or count == 0:
                continue
            activity = ledger.mean_activity(event)
            pj = count * (price.base_pj + price.act_pj * activity)
            energy = pj * PJ * self.persona.dyn
            if price.rail == "io":
                energy *= s_vio
            else:
                energy *= (
                    price.vdd_frac * s_vdd
                    + (1.0 - price.vdd_frac) * s_vcs
                )
            block = block_of_event(event)
            joules[block] = joules.get(block, 0.0) + energy
            counts[block] = counts.get(block, 0) + int(count)
        return sorted(
            (
                BlockPower(block, j / window_s, counts[block])
                for block, j in joules.items()
            ),
            key=lambda b: -b.active_w,
        )

    # --------------------------------------------------------------- report
    def render(
        self,
        ledger: EventLedger,
        window_cycles: float,
        op: OperatingPoint,
    ) -> str:
        """A printable block-power report."""
        blocks = self.active_breakdown(ledger, window_cycles, op)
        total_active = sum(b.active_w for b in blocks)
        rows = [
            (
                b.block,
                round(b.active_w * 1e3, 2),
                (
                    round(100 * b.active_w / total_active, 1)
                    if total_active
                    else 0.0
                ),
                b.events,
            )
            for b in blocks
        ]
        idle = self.model.idle_power(op)
        table = render_table(
            ["block", "active mW", "% of active", "events"],
            rows,
            title="Activity power by block "
            f"(idle baseline {1e3 * (idle.vdd_w + idle.vcs_w):.0f} mW "
            "excluded)",
        )
        return table
