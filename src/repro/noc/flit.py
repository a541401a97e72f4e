"""Flits, packets, and bit-level activity metrics.

A flit carries 64 bits of payload. The head flit of a packet carries
the routing header (destination tile, packet class); body flits carry
data. Figure 12's four switching patterns are defined over consecutive
*payload* flit values, so packets here keep real 64-bit payloads and
the link model measures Hamming switching between what it carried last
and what it carries now.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

WORD_MASK = (1 << 64) - 1


class Flit:
    """One 64-bit flit, compared and hashed by value. ``dest`` is the
    routing destination, which head flits require."""

    __slots__ = ("payload", "is_head", "is_tail", "dest")

    def __init__(self, payload: int, is_head: bool = False,
                 is_tail: bool = False, dest: int | None = None):
        if not 0 <= payload <= WORD_MASK:
            raise ValueError("payload must fit in 64 bits")
        if is_head and dest is None:
            raise ValueError("head flit requires a destination")
        self.payload = payload
        self.is_head = is_head
        self.is_tail = is_tail
        self.dest = dest

    def _key(self) -> tuple:
        return (self.payload, self.is_head, self.is_tail, self.dest)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Flit:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return ("Flit(payload=%r, is_head=%r, is_tail=%r, dest=%r)"
                % self._key())


@dataclass
class Packet:
    """An ordered flit sequence with a single destination."""

    dest: int
    flits: list[Flit] = field(default_factory=list)
    injected_at: int | None = None
    delivered_at: int | None = None

    @classmethod
    def build(cls, dest: int, payloads: Sequence[int]) -> "Packet":
        """Head flit + one body flit per payload word; last is tail."""
        flits = [Flit(payload=dest & WORD_MASK, is_head=True, dest=dest)]
        for i, word in enumerate(payloads):
            flits.append(
                Flit(payload=word & WORD_MASK,
                     is_tail=(i == len(payloads) - 1))
            )
        if len(flits) == 1:
            flits[0] = Flit(
                payload=dest & WORD_MASK, is_head=True, is_tail=True,
                dest=dest,
            )
        return cls(dest=dest, flits=flits)

    def __len__(self) -> int:
        return len(self.flits)

    @property
    def latency(self) -> int | None:
        if self.injected_at is None or self.delivered_at is None:
            return None
        return self.delivered_at - self.injected_at


def make_invalidation_packet(dest: int, payloads: Sequence[int]) -> Packet:
    """The paper's NoC-energy dummy packet: a routing header flit
    followed by six payload flits, received by the L1.5 as an
    invalidation. ``payloads`` must have six words."""
    if len(payloads) != 6:
        raise ValueError("invalidation dummy packets carry 6 payload flits")
    return Packet.build(dest, payloads)


def switching_bits(prev: int, curr: int) -> int:
    """Bits that toggle between consecutive words on a link."""
    return ((prev ^ curr) & WORD_MASK).bit_count()


def coupling_factor(prev: int, curr: int) -> float:
    """Fraction of adjacent bit pairs toggling in *opposite* directions.

    This is the aggressor/victim coupling the FSWA pattern maximizes:
    0xAAAA... -> 0x5555... toggles every bit with each neighbour moving
    the other way (factor 1.0), while FSW's all-ones -> all-zeros moves
    every neighbour pair together (factor 0.0).
    """
    rising = ~prev & curr & WORD_MASK
    falling = prev & ~curr & WORD_MASK
    opposite = (rising & (falling >> 1)) | (falling & (rising >> 1))
    return opposite.bit_count() / 63.0
