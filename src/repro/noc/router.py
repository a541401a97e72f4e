"""Dimension-ordered wormhole mesh router.

Five ports (local, north, east, south, west), an input FIFO per port,
per-output round-robin arbitration, and wormhole locking from head to
tail flit. Timing matches the paper: one cycle per hop, plus one cycle
when a packet turns from the X dimension into Y.
"""

from __future__ import annotations

import enum
from collections import deque

from repro.noc.flit import Flit


class Port(enum.IntEnum):
    LOCAL = 0
    NORTH = 1
    EAST = 2
    SOUTH = 3
    WEST = 4


#: Ports in arbitration order; round-robin pointers index into it.
PORTS = tuple(Port)

X_PORTS = (Port.EAST, Port.WEST)

#: A new router's output locks and round-robin pointers; each router
#: copies them (a copy keeps the keys' hashes).
_UNLOCKED = dict.fromkeys(PORTS)
_RR_START = dict.fromkeys(PORTS, 0)


def is_turn(in_port: Port, out_port: Port) -> bool:
    """A dimension change (X input to Y output or vice versa)."""
    if in_port == Port.LOCAL or out_port == Port.LOCAL:
        return False
    return (in_port in X_PORTS) != (out_port in X_PORTS)


class InputPort:
    """One input FIFO with its wormhole lock and turn-penalty stall."""

    __slots__ = ("queue", "locked_output", "stall_until")

    def __init__(self) -> None:
        self.queue: deque[Flit] = deque()
        self.locked_output: Port | None = None
        self.stall_until = -1


class Router:
    """One mesh router's state. The mesh drives arbitration and the
    credit check (at most ``INPUT_QUEUE_DEPTH`` flits an input)."""

    INPUT_QUEUE_DEPTH = 4

    def __init__(self, tile_id: int, x: int, y: int):
        self.tile_id = tile_id
        self.x = x
        self.y = y
        self.inputs: dict[Port, InputPort] = {p: InputPort() for p in PORTS}
        self.output_locked_by: dict[Port, Port | None] = _UNLOCKED.copy()
        self.rr_pointer: dict[Port, int] = _RR_START.copy()
        self.flits_routed = 0

    def route_port(self, dest_x: int, dest_y: int) -> Port:
        """Dimension-ordered (X then Y) output selection."""
        if dest_x > self.x:
            return Port.EAST
        if dest_x < self.x:
            return Port.WEST
        if dest_y > self.y:
            return Port.SOUTH
        if dest_y < self.y:
            return Port.NORTH
        return Port.LOCAL
