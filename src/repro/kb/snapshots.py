"""Shared CRC-checked snapshot plumbing.

Every durable file in the system — the knowledge-base shard logs and
their checkpoints (:mod:`repro.kb.shards`), the job journal
(:mod:`repro.api.journal`) and the model-registry snapshots
(:mod:`repro.serving.registry`) — needs the same three guarantees:

* **atomic replacement** — a snapshot file is either the old complete
  version or the new complete version, never a torn mix
  (:func:`atomic_write_bytes`: temp file + ``fsync`` + ``os.replace``);
* **bit-rot detection** — payload bytes travel with a CRC32 that is
  verified before anything is deserialised (:func:`frame_blob` /
  :func:`unframe_blob`);
* **schema versioning** — every frame names its format version so a
  reader can reject (or fall back from) a snapshot written by a different
  schema instead of misinterpreting it.

``marshal`` is the serialiser of choice on top of these helpers: it is
the fastest stdlib option for JSON-shaped data and a corrupt or hostile
blob can at worst raise — caught by the caller — never execute code.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path

from repro.exceptions import SmartMLError

__all__ = [
    "SnapshotIntegrityError",
    "SnapshotSchemaError",
    "atomic_write_bytes",
    "frame_blob",
    "unframe_blob",
    "frame_header_size",
    "iter_frames",
    "scan_frames",
]


class SnapshotIntegrityError(SmartMLError):
    """A snapshot file is corrupt, truncated, or mislabelled."""


class SnapshotSchemaError(SnapshotIntegrityError):
    """A snapshot was written under a different (incompatible) schema."""


#: Fixed-size frame header: 4-byte magic, u32 format, u32 crc32, u64 length.
_HEADER = struct.Struct("<4sIIQ")


def atomic_write_bytes(path: str | Path, blob: bytes) -> None:
    """Write ``blob`` to ``path`` atomically (temp file + fsync + replace)."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def frame_blob(payload: bytes, magic: bytes, format_version: int) -> bytes:
    """Wrap ``payload`` in a CRC-checked, schema-versioned frame."""
    if len(magic) != 4:
        raise ValueError("magic must be exactly 4 bytes")
    header = _HEADER.pack(magic, format_version, zlib.crc32(payload), len(payload))
    return header + payload


def unframe_blob(data: bytes, magic: bytes, format_version: int, what: str = "snapshot") -> bytes:
    """Validate a frame written by :func:`frame_blob`; returns the payload.

    Raises :class:`SnapshotIntegrityError` on truncation, wrong magic, or a
    CRC mismatch, and :class:`SnapshotSchemaError` when the format version
    differs from ``format_version`` — callers choose whether that is fatal
    (the model registry: fail loudly) or a fallback trigger (the KB store:
    replay the log).
    """
    if len(data) < _HEADER.size:
        raise SnapshotIntegrityError(
            f"{what} is truncated: {len(data)} bytes is shorter than the "
            f"{_HEADER.size}-byte header"
        )
    got_magic, got_format, crc, length = _HEADER.unpack_from(data)
    if got_magic != magic:
        raise SnapshotIntegrityError(
            f"{what} has wrong magic {got_magic!r} (expected {magic!r}); "
            "this is not the file format it claims to be"
        )
    if got_format != format_version:
        raise SnapshotSchemaError(
            f"{what} uses schema version {got_format} but this build reads "
            f"version {format_version}; refusing to guess at the layout"
        )
    payload = data[_HEADER.size :]
    if len(payload) != length:
        raise SnapshotIntegrityError(
            f"{what} is truncated: header promises {length} payload bytes "
            f"but {len(payload)} are present"
        )
    if zlib.crc32(payload) != crc:
        raise SnapshotIntegrityError(f"{what} failed its CRC32 check (bit rot or tampering)")
    return payload


def frame_header_size() -> int:
    """Byte length of the fixed frame header written by :func:`frame_blob`."""
    return _HEADER.size


def iter_frames(data: bytes, magic: bytes, format_version: int):
    """Yield ``(payload, end_offset)`` for each valid frame in ``data``.

    Frames are the :func:`frame_blob` format laid end to end — the layout
    the job journal uses for its write-ahead log.  Iteration stops at the
    first frame that fails validation (truncation, bad magic, schema
    mismatch, or CRC failure): because frames are length-delimited, nothing
    after a damaged frame can be trusted, so the valid prefix is the
    recoverable log.  Callers inspect the last yielded ``end_offset``
    against ``len(data)`` to detect (and loudly repair) a torn or
    bit-flipped tail.
    """
    offset = 0
    total = len(data)
    while offset < total:
        remaining = total - offset
        if remaining < _HEADER.size:
            return
        got_magic, got_format, crc, length = _HEADER.unpack_from(data, offset)
        if got_magic != magic or got_format != format_version:
            return
        end = offset + _HEADER.size + length
        if length > remaining - _HEADER.size:
            return
        payload = data[offset + _HEADER.size : end]
        if zlib.crc32(payload) != crc:
            return
        yield payload, end
        offset = end


def scan_frames(
    data: bytes, magic: bytes, format_version: int, offset: int = 0
) -> tuple[list[bytes], int, str]:
    """Walk frames like :func:`iter_frames` but *classify* how they end.

    Returns ``(payloads, valid_end, tail)`` where ``tail`` is:

    * ``"clean"`` — every byte from ``offset`` to EOF is valid frames;
    * ``"torn"`` — the bytes after the last valid frame are consistent
      with a single interrupted write: too short for a header, or an
      intact header whose declared payload runs past EOF.  This is what a
      crash mid-``write`` leaves behind and is safe to truncate away;
    * ``"corrupt"`` — the trailing bytes are *not* a torn write: wrong
      magic or schema mid-file, or a complete frame whose CRC fails.
      That is bit rot or tampering, not a crash, and callers should
      quarantine rather than silently truncate.

    The distinction matters because a log writer appends header-first:
    an interrupted write can only ever leave a header prefix or a payload
    prefix, never a full-length frame with a bad checksum.
    """
    payloads: list[bytes] = []
    total = len(data)
    while offset < total:
        remaining = total - offset
        if remaining < _HEADER.size:
            return payloads, offset, "torn"
        got_magic, got_format, crc, length = _HEADER.unpack_from(data, offset)
        if got_magic != magic or got_format != format_version:
            return payloads, offset, "corrupt"
        if length > remaining - _HEADER.size:
            return payloads, offset, "torn"
        end = offset + _HEADER.size + length
        payload = data[offset + _HEADER.size : end]
        if zlib.crc32(payload) != crc:
            return payloads, offset, "corrupt"
        payloads.append(payload)
        offset = end
    return payloads, offset, "clean"

