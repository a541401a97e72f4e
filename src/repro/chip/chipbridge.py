"""The chip bridge: three NoCs multiplexed over a 32-bit off-chip link.

Piton's three physical 64-bit NoCs leave the chip through tile 0 over a
pin-limited 32-bit (each direction) source-synchronous interface to the
gateway FPGA, using logical channels to keep the networks independent.
Two consequences the paper measures:

* every 64-bit flit costs two 32-bit beats of pad switching (VIO rail),
* inbound bandwidth is far below one flit per core cycle, producing the
  repeating 7-valid-flits-per-47-cycles pattern the Figure 12 EPF
  methodology depends on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.params import PitonConfig
from repro.util.events import EventLedger

#: Fraction of raw link bandwidth available to flit payload after
#: logical-channel framing/credit overhead. Calibrated so the inbound
#: flit rate reproduces the paper's simulation-verified traffic pattern
#: of 7 valid flits every 47 core cycles.
FRAMING_EFFICIENCY = 0.8274


@dataclass(frozen=True)
class BridgePattern:
    """The repeating inbound traffic pattern seen by the NoC."""

    valid_flits: int
    period_cycles: int

    @property
    def flits_per_cycle(self) -> float:
        return self.valid_flits / self.period_cycles


class ChipBridge:
    """Bandwidth and pad-energy model of the off-chip interface."""

    def __init__(
        self,
        config: PitonConfig | None = None,
        ledger: EventLedger | None = None,
    ):
        self.config = config or PitonConfig()
        self.ledger = ledger if ledger is not None else EventLedger()

    @property
    def link_bits_per_second(self) -> float:
        """Raw off-chip bandwidth, each direction."""
        return (
            self.config.chip_bridge_bits
            * self.config.clocks.gateway_to_piton_hz
        )

    def inbound_flits_per_core_cycle(self, core_clock_hz: float) -> float:
        """Sustained inbound NoC flit rate in flits per core cycle."""
        flit_bits = self.config.noc.flit_bits
        return (
            self.link_bits_per_second
            * FRAMING_EFFICIENCY
            / (flit_bits * core_clock_hz)
        )

    def traffic_pattern(self, core_clock_hz: float) -> BridgePattern:
        """Best small-integer repeating pattern for the flit rate.

        At the default 500.05 MHz core clock this returns the paper's
        7-per-47 pattern.
        """
        rate = self.inbound_flits_per_core_cycle(core_clock_hz)
        best = BridgePattern(1, max(1, round(1 / rate)))
        best_err = abs(best.flits_per_cycle - rate)
        for flits in range(1, 16):
            period = round(flits / rate)
            if period <= 0:
                continue
            err = abs(flits / period - rate)
            if err < best_err - 1e-12:
                best, best_err = BridgePattern(flits, period), err
        return best

    def transfer_flits(self, flits: int) -> None:
        """Account pad energy for moving ``flits`` NoC flits off/on chip.

        Each 64-bit flit serializes into two 32-bit beats on the VIO
        pads, at the switching activity of random data; the framing
        overhead adds proportional extra beats.
        """
        if flits < 0:
            raise ValueError("flit count must be non-negative")
        beats = flits * (self.config.noc.flit_bits // 32)
        overhead = beats * (1.0 / FRAMING_EFFICIENCY - 1.0)
        self.ledger.record("io.beat", beats, activity=0.5)
        self.ledger.record("io.beat", overhead, activity=0.25)
        self.ledger.record("chipbridge.flit", flits)
