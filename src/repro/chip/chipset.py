"""The chipset FPGA: bridges, DRAM controller front-end, and I/O.

The Digilent Genesys2 board's Kintex-7 implements the chip-bridge
demultiplexer, a north bridge routing memory traffic to the DDR3
controller, and a south bridge fanning out to the SD card (boot disk +
filesystem), serial port, and network controller. The chipset is *not*
powered from the Piton rails, so its compute costs nothing in our power
accounting — but its latencies are on the critical path (Figure 15) and
its I/O devices set the system-level behaviour the SPEC study sees
(848 ns memory, SD-card filesystem).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.params import PitonConfig, SystemClocks
from repro.chip.dram import DramModel
from repro.util.events import EventLedger


@dataclass(frozen=True)
class IoDevice:
    """One south-bridge peripheral."""

    name: str
    bandwidth_bytes_per_s: float
    access_latency_s: float


def default_io_devices() -> dict[str, IoDevice]:
    clocks = SystemClocks()
    return {
        # SPI-mode SD card at 20 MHz: ~2.5 MB/s peak, slow random access.
        "sd": IoDevice("sd", clocks.sd_spi_hz / 8.0, 1.2e-3),
        # 115200-baud UART: 8N1 framing -> ~11.5 KB/s.
        "uart": IoDevice("uart", clocks.uart_baud / 10.0, 0.0),
        "nic": IoDevice("nic", 12.5e6, 50e-6),
    }


class Chipset:
    """Functional model of the chipset FPGA board."""

    def __init__(
        self,
        config: PitonConfig | None = None,
        ledger: EventLedger | None = None,
        dram: DramModel | None = None,
    ):
        self.config = config or PitonConfig()
        self.ledger = ledger if ledger is not None else EventLedger()
        self.dram = dram or DramModel(ledger=self.ledger)
        self.devices = default_io_devices()
        self.dram_bytes = 1 * 1024**3  # 1GB on the Genesys2
