"""Durable records: one frame codec and one atomic writer.

Every file the tooling persists — result-store entries (checkpoints
and the service's cache), job records, ``run --json --out``
documents, golden snapshots, surrogate profiles, checkpoint
metadata — goes through :func:`atomic_write_bytes`: the content
lands in a same-directory ``.tmp-*`` file, is flushed and fsynced,
``os.replace``\\ d over the destination, and the directory entry is
fsynced. An interrupt (Ctrl-C, SIGKILL, power loss) at any instant
leaves either the complete old file or the complete new one, plus at
worst a stray temp file that :func:`sweep_temp_files` removes. A temp
file's name carries its writer's pid (``.tmp-<pid>-...``), so a store
shared by live writers can tell a crashed write's orphan from a write
in flight (:func:`orphaned_temp`).

The two binary record kinds, store entries and job records, share
one frame (:func:`frame` / :func:`unframe`)::

    magic | >IQ (crc32, payload length) | kind header | payload

The CRC32 covers the kind header as well as the payload, so a record
whose magic, length, header or payload is damaged — a flipped bit, a
torn tail — reads as absent. A store that finds one moves it aside
with :func:`quarantine`.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path

#: crc32(header + payload), len(payload) — right after the magic.
_FRAME = struct.Struct(">IQ")
#: Prefix of in-flight temp files (``.tmp-<writer pid>-<random>``); a
#: crash mid-write leaves one behind for :func:`sweep_temp_files`.
TEMP_PREFIX = ".tmp-"


def frame(magic: bytes, payload: bytes, header: bytes = b"") -> bytes:
    """One record: magic, CRC and length, the kind's header, payload."""
    crc = zlib.crc32(payload, zlib.crc32(header))
    return magic + _FRAME.pack(crc, len(payload)) + header + payload


def unframe(
    blob: bytes, magic: bytes, header_size: int = 0
) -> tuple[bytes, bytes] | None:
    """``(header, payload)`` of a verified record, else ``None``."""
    start = len(magic) + _FRAME.size
    if len(blob) < start + header_size or not blob.startswith(magic):
        return None
    crc, length = _FRAME.unpack_from(blob, len(magic))
    header = blob[start:start + header_size]
    payload = blob[start + header_size:]
    if len(payload) != length:
        return None
    if zlib.crc32(payload, zlib.crc32(header)) != crc:
        return None
    return header, payload


def fsync_dir(path: Path | str) -> None:
    """Flush a directory entry (best effort on exotic filesystems)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: Path | str, data: bytes) -> Path:
    """Write ``data`` to ``path`` atomically and durably.

    Temp file, fsync, rename, then fsync of the directory so the
    rename itself survives a power loss.
    """
    path = Path(path)
    parent = path.parent
    fd, tmp_name = tempfile.mkstemp(
        prefix=f"{TEMP_PREFIX}{os.getpid()}-", dir=parent
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        Path(tmp_name).unlink(missing_ok=True)
        raise
    fsync_dir(parent)
    return path


def atomic_write_text(
    path: Path | str, text: str, ensure_newline: bool = False
) -> Path:
    """Write ``text`` to ``path`` atomically; optionally newline-end it."""
    if ensure_newline and not text.endswith("\n"):
        text += "\n"
    return atomic_write_bytes(path, text.encode("utf-8"))


def sweep_temp_files(root: Path) -> None:
    """Delete the temp files of writes a crash cut short under ``root``."""
    for tmp in root.glob(TEMP_PREFIX + "*"):
        tmp.unlink(missing_ok=True)


def orphaned_temp(path: Path) -> bool:
    """Whether temp file ``path`` outlived its writer: the pid in its
    name is not a live process (or it carries none)."""
    pid = path.name[len(TEMP_PREFIX):].partition("-")[0]
    if not pid.isdigit() or int(pid) <= 0:
        return True
    try:
        os.kill(int(pid), 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # alive, owned by another user
        return False
    return False


def quarantine(path: Path, into: Path) -> bool:
    """Move a damaged record to ``into/<name>.damaged``.

    Out of every read path (stores glob their own suffix) but kept on
    disk for inspection. ``False`` when the record vanished first (a
    racing eviction or retirement).
    """
    into.mkdir(parents=True, exist_ok=True)
    try:
        os.replace(path, into / (path.name + ".damaged"))
    except OSError:
        return False
    return True
