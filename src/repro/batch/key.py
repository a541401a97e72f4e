"""Timing-class identity of a simulation request.

Two :class:`~repro.system.SimRequest`\\ s with the same
:func:`batch_key` are guaranteed to produce bit-identical
:class:`~repro.system.SimOutcome`\\ s, because the key covers every
input the simulation reads:

* the workload (programs, initial registers, memory images), the chip
  configuration, the address interleaving, the run window, and the
  drafting/checks flags — all hashed verbatim;
* the core clock — hashed verbatim when the workload *can* reach the
  off-chip path, and dropped entirely when it provably cannot.

The second rule is what makes dense V/f sweeps batchable. The core
clock influences the architectural simulation in exactly one place:
:class:`~repro.chip.offchip.OffChipPath` converts DRAM nanoseconds to
core cycles. The off-chip path is only ever invoked by the coherent
memory system on an L2 miss, and the memory system is only ever
entered through a ``Unit.MEM`` instruction (``ldx``/``stx``/``cas``).
A workload with no memory instructions therefore executes identically
at 285 MHz and at 1 GHz — same cycles, same events, same everything —
and N frequency points collapse into one simulation.

Frequency-*dependent* requests stay correct automatically: their keys
include ``freq_hz``, so distinct frequencies land in distinct groups
(a "de-batch" — see :mod:`repro.batch.plan`), never in a shared one.

:func:`batch_keys` hashes each request *template* once: the same
program objects at the same tiles, the same config object and equal
other fields. Identity, not equality: equal objects can pickle apart.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.isa.instructions import Unit

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.system import SimRequest
    from repro.workloads.base import TileProgram


def workload_can_touch_memory(
    workload: Mapping[int, "TileProgram"],
) -> bool:
    """Whether any thread could ever enter the coherent memory system.

    True when any program contains a ``Unit.MEM`` instruction, or when
    a tile pre-loads a memory image (conservative: an image without a
    load to read it is inert, but cheap certainty beats cleverness
    here). Only a False answer is load-bearing — it licenses dropping
    the core clock from the batch key.
    """
    for tile_program in workload.values():
        if tile_program.memory_image:
            return True
        for program in tile_program.programs:
            for info in program.infos:
                if info.unit is Unit.MEM:
                    return True
    return False


#: What :meth:`BatchKey.to_bytes` hashes: the clockless digest, whether
#: the clock counts, and the clock (0.0 when it does not).
_KEY_FIELDS = struct.Struct(">32s?d")


@dataclass(frozen=True)
class BatchKey:
    """The timing class of one simulation request.

    ``digest`` hashes every simulation input except the core clock;
    ``freq_token`` is the clock when it matters and ``None`` when the
    workload provably never reaches the off-chip path. Requests are
    batchable iff their keys compare equal.
    """

    digest: bytes
    freq_token: float | None

    @property
    def freq_independent(self) -> bool:
        return self.freq_token is None

    def to_bytes(self) -> bytes:
        """The key as a 32-byte SHA-256: what the checkpoint journal and
        the result store key a timing class's record by. Equal keys
        give equal bytes, and distinct keys distinct bytes."""
        fields = _KEY_FIELDS.pack(
            self.digest, self.freq_token is not None, self.freq_token or 0.0
        )
        return hashlib.sha256(fields).digest()


def _clockless_digest(request: "SimRequest") -> bytes:
    """SHA-256 over the request's pickle with the clock zeroed out.

    Requests are plain dataclasses of scalars, lists, and
    insertion-ordered dicts (no sets), so the pickle bytes are stable
    across processes and runs of the same code — which is also what
    lets ``--resume`` and the result store match records written by
    an earlier process.
    """
    surrogate = replace(request, freq_hz=1.0)
    return hashlib.sha256(
        pickle.dumps(surrogate, protocol=pickle.HIGHEST_PROTOCOL)
    ).digest()


def batch_keys(requests: Sequence["SimRequest"]) -> list[BatchKey]:
    """:func:`batch_key` of each request, one digest per template (the
    scalars by type too: ``True == 1``, yet they pickle apart)."""
    templates: dict[tuple, tuple[bytes, bool]] = {}
    keys = []
    for req in requests:
        scalars = (*req.workload, req.interleave, req.warmup_cycles,
                   req.window_cycles, req.max_cycles,
                   req.execution_drafting, req.checks)
        template = (tuple(map(id, req.workload.values())), id(req.config),
                    scalars, tuple(map(type, scalars)))
        if template not in templates:
            templates[template] = (
                _clockless_digest(req),
                workload_can_touch_memory(req.workload),
            )
        digest, clocked = templates[template]
        keys.append(BatchKey(digest, req.freq_hz if clocked else None))
    return keys


def batch_key(request: "SimRequest") -> BatchKey:
    """The timing class of ``request`` (see the module docstring)."""
    return batch_keys([request])[0]


def affinity_key(request: "SimRequest") -> bytes:
    """The workload-affinity class: the batch key *ignoring* timing.

    Points that share an affinity class wanted to batch — they run the
    same workload over the same topology and window. When their full
    :func:`batch_key`\\ s still differ (a timing-affecting difference,
    e.g. distinct clocks on a memory-touching workload), the planner
    records a de-batch event for the observability ledger instead of
    merging them.
    """
    return _clockless_digest(request)
