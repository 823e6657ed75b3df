"""The knowledge base's record store: CRC-framed, sharded, self-healing.

The paper's knowledge base is "continuously updated after running each
task", so durability matters more than query sophistication.  A store
root holds **content-addressed shards** (one by default):

* ``datasets`` rows route by a stable digest of their content (name +
  meta-features), ``runs`` rows follow the dataset they belong to, so a
  dataset and all its runs always share a shard;
* each shard is an independent CRC-framed log (``shard-NNN.log``, frames
  from :func:`repro.kb.snapshots.frame_blob`; one frame per append
  batch) with its own marshal snapshot sidecar, so a restart replays only
  the log tail written since the last checkpoint;
* a ``MANIFEST.json`` carries per-shard byte counts and digests, so a
  missing, truncated, or rewritten shard is detected even when the bytes
  that remain are internally consistent.

Corruption is therefore **contained**: a shard that fails validation is
*quarantined* at load — its records drop out of the read path and
appends routed to it raise — while the store keeps serving from the
survivors and reports the damage through ``degraded`` /
:meth:`ShardedRecordStore.health`.  A torn final frame (the signature of
a crash mid-append) is repaired automatically by truncation; only
*non-crash* damage quarantines.  ``ShardedRecordStore()`` without a root
is the in-memory mode: one shard, no files.

Two maintenance entry points live here as pure functions so they can run
against roots that are not (and must not be) opened as live stores:

* :func:`fsck_store` — verify every frame CRC read-only; with
  ``repair=True`` salvage the valid prefix of each damaged shard, drop
  unusable snapshots, and rebuild the manifest, reporting what was lost;
* :func:`merge_kb_roots` — deterministically union the run histories of
  N instance roots.  Records dedup by content digest and the result is
  rebuilt in canonical digest order, so merging the same roots in *any*
  order produces byte-identical files.  It also converts legacy
  JSON-lines logs (the store's former single-file format), which the
  store itself refuses to open.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
import marshal
import os
import shutil
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

from repro.exceptions import KnowledgeBaseError
from repro.kb.snapshots import (
    atomic_write_bytes,
    frame_blob,
    scan_frames,
    unframe_blob,
)

__all__ = [
    "MANIFEST_NAME",
    "SHARD_FORMAT",
    "SHARD_MAGIC",
    "ShardedRecordStore",
    "dataset_content_digest",
    "fsck_store",
    "is_sharded_root",
    "merge_kb_roots",
    "run_content_digest",
    "shard_for_digest",
]

logger = logging.getLogger("repro.kb.shards")

#: Frame magic + format of the shard logs (one frame = one append batch).
SHARD_MAGIC = b"SMKS"
SHARD_FORMAT = 1
#: Frame magic + format of the per-shard snapshot sidecars.
_SNAP_MAGIC = b"SMKP"
_SNAP_FORMAT = 1
MANIFEST_NAME = "MANIFEST.json"
_MANIFEST_FORMAT = 1
_DEFAULT_SHARDS = 1


# ------------------------------------------------------------------ digests
def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def dataset_content_digest(name, metafeatures) -> str:
    """Stable content digest of a dataset row (shard key + merge dedup key).

    Derived from *what the row says*, never from its assigned id, so two
    instances that processed the same dataset agree on its identity.
    """
    return hashlib.blake2b(
        _canonical_json({"name": name, "metafeatures": metafeatures}), digest_size=16
    ).hexdigest()


def run_content_digest(data: dict) -> str:
    """Stable content digest of a run row (merge dedup key).

    Excludes ``dataset_id`` — ids are per-instance accidents; the digest
    pairs with the owning dataset's content digest instead.
    """
    payload = {
        "algorithm": data.get("algorithm"),
        "config": data.get("config"),
        "accuracy": data.get("accuracy"),
        "n_folds": data.get("n_folds"),
        "budget_s": data.get("budget_s"),
    }
    return hashlib.blake2b(_canonical_json(payload), digest_size=16).hexdigest()


def shard_for_digest(digest: str, n_shards: int) -> int:
    """Map a content digest onto one of ``n_shards`` shard indices."""
    return int(digest[:8], 16) % n_shards


def is_sharded_root(path: str | Path) -> bool:
    """Whether ``path`` is (or will be read as) a store root directory."""
    path = Path(path)
    return path.is_dir() or (path / MANIFEST_NAME).exists()


def _refuse_legacy_log(path: Path) -> None:
    """Raise if ``path`` is a legacy JSON-lines log rather than a store root."""
    if path.is_file():
        raise KnowledgeBaseError(
            f"{path} is a legacy JSON-lines knowledge-base log; convert it with "
            f"`repro kb merge <new-root> {path}` and use the new root"
        )


def _loads_without_gc(payload: bytes):
    """``marshal.loads`` with the cyclic collector paused.

    A snapshot decodes into a few containers per record, none of which can
    be garbage yet; the collector passes that their allocation triggers
    otherwise cost a large share of a big store's open.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return marshal.loads(payload)
    finally:
        if enabled:
            gc.enable()


def _shard_file_name(index: int) -> str:
    return f"shard-{index:03d}.log"


# ------------------------------------------------------------------- shards
class _Shard:
    """One shard's in-memory state: tables, running digest, quarantine."""

    def __init__(self, index: int, log_path: Path | None):
        self.index = index
        self.log_path = log_path
        self.snapshot_path = (
            log_path.with_name(log_path.name + ".snapshot") if log_path else None
        )
        self.tables: dict[str, dict[int, dict]] = {}
        self.log_bytes = 0
        self.digest = hashlib.md5()
        self.entries = 0
        self.max_id = 0
        self.file = None
        self.quarantined = False
        self.quarantine_reason: str | None = None
        # The last manifest entry seen for this shard — carried forward
        # verbatim while quarantined so the damaged file's recorded state
        # (notably max_id, which guards against id reuse) is not lost.
        self.manifest_entry: dict | None = None

    def quarantine(self, reason: str) -> None:
        self.quarantined = True
        self.quarantine_reason = reason
        self.tables = {}

    def manifest_row(self) -> dict:
        if self.quarantined and self.manifest_entry is not None:
            return dict(self.manifest_entry)
        return {
            "file": self.log_path.name,
            "bytes": self.log_bytes,
            "md5": self.digest.hexdigest(),
            "records": self.entries,
            "max_id": self.max_id,
        }


class ShardedRecordStore:
    """A durable multi-table record log split across content-addressed
    shard files under a root directory.

    Tables map integer ids (one global, monotonically increasing sequence)
    to JSON-shaped dicts.  Appends are batched (one CRC frame and one
    flush per touched shard), updates and deletes are logged as new
    frames, and :meth:`compact` rewrites each log without the superseded
    entries.  A lock makes every operation thread-safe; the REST job
    service additionally funnels all appends through one writer thread
    (``api/jobs.py``).  Damage to one shard quarantines that shard only
    (``degraded`` flips, :meth:`health` reports it) instead of failing the
    open.

    Parameters
    ----------
    root:
        Store directory.  Created (with ``n_shards`` shards and a
        manifest) when it does not exist yet.  ``None`` keeps the store
        purely in memory: one shard, no files, no encoding on append.
    n_shards:
        Shard count for a *new* store (default 1).  An existing root's
        manifest wins; passing a different explicit count for an existing
        root raises.
    snapshot_every:
        Checkpoint shards + manifest after this many appended/updated
        records since the last checkpoint — deferred on large stores
        until that tail is at least a quarter of all ids ever assigned,
        so re-serialisation stays amortised O(1) per append — and on
        ``close()`` of a session that wrote.  ``None`` disables automatic
        checkpoints; :meth:`snapshot` still works.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        n_shards: int | None = None,
        snapshot_every: int | None = 1000,
    ):
        self.root = Path(root) if root is not None else None
        self.snapshot_every = snapshot_every
        self._lock = threading.RLock()
        self._next_id = 1
        self._id_shard: dict[int, int] = {}
        self._entries_since_snapshot = 0
        self._session_appends = 0
        self.snapshot_fallbacks = 0
        self.corrupt_frames_dropped = 0
        #: Crash-injection hook with the journal's contract: called as
        #: ``hook(entries, frame)`` before each frame write; ``None`` =
        #: write normally, ``b""`` = die before, a prefix = torn write,
        #: the full frame = die just after.  Once fired the store is
        #: sealed: no further durable bytes, appends raise.
        self.fault_hook = None
        self._dead = False
        self._closed = False

        if self.root is None:
            if n_shards not in (None, 1):
                raise ValueError("an in-memory store has exactly one shard")
            self.n_shards = 1
            self._shards = [_Shard(0, None)]
            return
        _refuse_legacy_log(self.root)
        manifest = self._read_manifest()
        if manifest is not None:
            manifest_shards = int(manifest["n_shards"])
            if n_shards is not None and n_shards != manifest_shards:
                raise KnowledgeBaseError(
                    f"{self.root}: manifest declares {manifest_shards} shards, "
                    f"cannot open with n_shards={n_shards}"
                )
            self.n_shards = manifest_shards
        else:
            self.n_shards = n_shards if n_shards is not None else _DEFAULT_SHARDS
            if self.n_shards < 1:
                raise ValueError("n_shards must be >= 1")
            self.root.mkdir(parents=True, exist_ok=True)
        rows = (manifest or {}).get("shards", [])
        self._shards = [
            self._load_shard(i, rows[i] if i < len(rows) else None)
            for i in range(self.n_shards)
        ]
        # The id sequence must clear every id ever assigned, *including*
        # those locked inside quarantined shards (known via the manifest),
        # or a repair could resurrect records whose ids were reused.
        self._next_id = 1 + max(
            [shard.max_id for shard in self._shards]
            + [
                int(shard.manifest_entry.get("max_id", 0))
                for shard in self._shards
                if shard.quarantined and shard.manifest_entry
            ]
            + [0]
        )
        for shard in self._shards:
            if not shard.quarantined:
                shard.file = open(shard.log_path, "ab")
        if manifest is None:
            for shard in self._shards:
                shard.log_path.touch()
            self._write_manifest()

    # ----------------------------------------------------------------- load
    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def _read_manifest(self) -> dict | None:
        if not self.manifest_path.exists():
            return None
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
            if manifest.get("format") != _MANIFEST_FORMAT:
                raise ValueError(f"unknown manifest format {manifest.get('format')!r}")
            int(manifest["n_shards"])
            return manifest
        except Exception as exc:
            raise KnowledgeBaseError(
                f"{self.manifest_path}: unreadable shard manifest ({exc}); "
                "run `repro kb fsck --repair` to rebuild it"
            ) from exc

    def _load_shard(self, index: int, mentry: dict | None) -> _Shard:
        shard = _Shard(index, self.root / _shard_file_name(index))
        shard.manifest_entry = dict(mentry) if mentry else None
        if not shard.log_path.exists():
            if mentry and int(mentry.get("bytes", 0)) > 0:
                self._quarantine(shard, "log file missing")
            return shard
        raw = shard.log_path.read_bytes()
        manifest_prefix = None
        if mentry:
            mbytes = int(mentry.get("bytes", 0))
            if len(raw) < mbytes:
                self._quarantine(
                    shard,
                    f"log shorter than manifest ({len(raw)} < {mbytes} bytes)",
                )
                return shard
            prefix_digest = hashlib.md5(raw[:mbytes])
            if prefix_digest.hexdigest() != mentry.get("md5"):
                self._quarantine(shard, "log prefix diverges from manifest digest")
                return shard
            manifest_prefix = (mbytes, prefix_digest)
        offset = self._load_shard_snapshot(shard, raw, manifest_prefix)
        payloads, valid_end, tail = scan_frames(raw, SHARD_MAGIC, SHARD_FORMAT, offset)
        for payload in payloads:
            try:
                entries = json.loads(payload)
                if not isinstance(entries, list):
                    raise ValueError("frame payload is not a list")
                for entry in entries:
                    self._apply(shard, entry)
            except Exception as exc:
                # The CRC passed, so this is a writer bug or tampering,
                # not a crash; containment over truncation.
                self._quarantine(shard, f"undecodable frame payload ({exc})")
                return shard
        if tail == "corrupt":
            self._quarantine(shard, f"corrupt frame at byte {valid_end}")
            return shard
        shard.digest.update(raw[offset:valid_end])
        shard.log_bytes = valid_end
        if tail == "torn":
            # Crash signature: truncate it away, loudly.
            self.corrupt_frames_dropped += 1
            logger.warning(
                "%s: dropped torn final frame (%d bytes) during open",
                shard.log_path,
                len(raw) - valid_end,
            )
            tmp = shard.log_path.with_suffix(".repair")
            tmp.write_bytes(raw[:valid_end])
            os.replace(tmp, shard.log_path)
        return shard

    def _load_shard_snapshot(
        self, shard: _Shard, raw: bytes, manifest_prefix: tuple | None
    ) -> int:
        """Adopt the shard's snapshot sidecar if valid; returns log offset.

        ``manifest_prefix`` is the ``(bytes, md5)`` the manifest check
        already computed; a snapshot taken with the manifest usually
        covers the same prefix, which is then not hashed a second time.
        """
        if not shard.snapshot_path.exists():
            return 0
        try:
            payload = unframe_blob(
                shard.snapshot_path.read_bytes(), _SNAP_MAGIC, _SNAP_FORMAT,
                what=str(shard.snapshot_path),
            )
            snap = _loads_without_gc(payload)
            if tuple(snap.get("python", ())) != sys.version_info[:2]:
                raise ValueError("written by a different CPython version")
            offset = snap["log_offset"]
            if not isinstance(offset, int) or not 0 <= offset <= len(raw):
                raise ValueError(f"covers offset {offset!r} beyond the log")
            if manifest_prefix is not None and manifest_prefix[0] == offset:
                prefix_digest = manifest_prefix[1]
            else:
                prefix_digest = hashlib.md5(raw[:offset])
            if prefix_digest.hexdigest() != snap["log_prefix_md5"]:
                raise ValueError("log prefix digest mismatch (log rewritten)")
            tables = snap["tables"]
            max_id = int(snap["max_id"])
            entries = int(snap["entries"])
        except Exception as exc:
            self.snapshot_fallbacks += 1
            logger.warning(
                "%s: snapshot unusable (%s); replaying the shard log in full",
                shard.snapshot_path,
                exc,
            )
            return 0
        shard.tables = tables
        shard.max_id = max_id
        shard.entries = entries
        for records in tables.values():
            self._id_shard.update(dict.fromkeys(records, shard.index))
        shard.digest = prefix_digest
        return offset

    def _quarantine(self, shard: _Shard, reason: str) -> None:
        for table in shard.tables.values():
            for record_id in table:
                self._id_shard.pop(record_id, None)
        shard.quarantine(reason)
        logger.error(
            "%s: shard %d quarantined (%s); serving from surviving shards",
            self.root,
            shard.index,
            reason,
        )

    def _apply(self, shard: _Shard, entry: dict) -> None:
        """Fold one log entry into ``shard`` (replay, update, delete); raises
        :class:`KnowledgeBaseError` on a malformed entry."""
        op, table, record_id = self._parse_entry(entry)
        if op == "put":
            shard.tables.setdefault(table, {})[record_id] = entry.get("data", {})
            self._id_shard[record_id] = shard.index
        else:
            shard.tables.get(table, {}).pop(record_id, None)
            self._id_shard.pop(record_id, None)
        shard.entries += 1
        shard.max_id = max(shard.max_id, record_id)

    @staticmethod
    def _parse_entry(entry: dict) -> tuple[str, str, int]:
        op = entry.get("op", "put")
        table = entry.get("table")
        record_id = entry.get("id")
        if not isinstance(table, str) or not isinstance(record_id, int):
            raise KnowledgeBaseError(f"malformed log entry: {entry!r}")
        if op not in ("put", "delete"):
            raise KnowledgeBaseError(f"unknown log op {op!r}")
        return op, table, record_id

    # ------------------------------------------------------------ degraded
    @property
    def degraded(self) -> bool:
        """Whether any shard is quarantined (the KB is serving survivors)."""
        return any(shard.quarantined for shard in self._shards)

    @property
    def dead(self) -> bool:
        """Durable state sealed by fault injection (simulated crash)."""
        return self._dead

    def quarantine_report(self) -> list[dict]:
        """Structured description of every quarantined shard."""
        return [
            {
                "shard": shard.index,
                "file": shard.log_path.name,
                "reason": shard.quarantine_reason,
                "manifest": shard.manifest_entry,
            }
            for shard in self._shards
            if shard.quarantined
        ]

    def health(self) -> dict:
        """Robustness gauges for monitoring (``/healthz``)."""
        with self._lock:
            return {
                "n_shards": self.n_shards,
                "degraded": self.degraded,
                "quarantined_shards": self.quarantine_report(),
                "snapshot_fallbacks": self.snapshot_fallbacks,
                "corrupt_frames_dropped": self.corrupt_frames_dropped,
            }

    # ---------------------------------------------------------------- write
    @contextmanager
    def locked(self):
        """Hold the store lock across several calls (id-peek + batch append)."""
        with self._lock:
            yield self

    def peek_next_id(self) -> int:
        """The id the next appended record will get (call under `locked`)."""
        with self._lock:
            return self._next_id

    def shard_for(self, table: str, data: dict) -> int:
        """Which shard an append of ``(table, data)`` would route to."""
        with self._lock:
            return self._route(table, data, {})

    def _route(self, table: str, data: dict, pending: dict[int, int]) -> int:
        if table == "runs":
            dataset_id = data.get("dataset_id")
            shard = self._id_shard.get(dataset_id, pending.get(dataset_id))
            if shard is None:
                raise KnowledgeBaseError(
                    f"runs row references unknown dataset id {dataset_id!r}"
                )
            return shard
        if table == "datasets" and self.n_shards > 1:
            digest = dataset_content_digest(data.get("name"), data.get("metafeatures"))
            return shard_for_digest(digest, self.n_shards)
        # One shard, or an auxiliary table (no content key): shard 0.
        return 0

    def append(self, table: str, data: dict) -> int:
        """Insert a record; returns its id."""
        return self.append_many([(table, data)])[0]

    def append_many(self, rows: list[tuple[str, dict]]) -> list[int]:
        """Insert a batch of ``(table, data)`` rows.

        Ids are assigned consecutively in ``rows`` order; each shard that
        the batch touches receives **one CRC frame** holding its slice of
        the batch, flushed once.  Routing (and quarantine checks) happen
        before any state mutates, so a batch aimed at a quarantined shard
        raises cleanly instead of landing half.
        """
        with self._lock:
            if self._dead:
                raise KnowledgeBaseError("store is sealed by fault injection")
            if self._closed:
                raise KnowledgeBaseError("store is closed")
            first_id = self._next_id
            pending: dict[int, int] = {}
            per_shard: dict[int, list[dict]] = {}
            for record_id, (table, data) in enumerate(rows, first_id):
                if not isinstance(table, str):
                    raise KnowledgeBaseError(f"table name must be a string, not {table!r}")
                shard_index = self._route(table, data, pending)
                if table == "datasets":
                    pending[record_id] = shard_index
                if self._shards[shard_index].quarantined:
                    raise KnowledgeBaseError(
                        f"{self.root}: shard {shard_index} is quarantined "
                        f"({self._shards[shard_index].quarantine_reason}); "
                        "run `repro kb fsck --repair` before writing to it"
                    )
                per_shard.setdefault(shard_index, []).append(
                    {"op": "put", "table": table, "id": record_id, "data": data}
                )
            for shard_index, entries in per_shard.items():
                shard = self._shards[shard_index]
                for entry in entries:
                    shard.tables.setdefault(entry["table"], {})[entry["id"]] = entry["data"]
                    self._id_shard[entry["id"]] = shard_index
                shard.entries += len(entries)
                shard.max_id = max(shard.max_id, entries[-1]["id"])
            self._next_id = first_id + len(rows)
            self._write(per_shard)
            return list(range(first_id, self._next_id))

    def update(self, table: str, record_id: int, data: dict) -> None:
        """Overwrite a record in place (logged as a new put)."""
        with self._lock:
            shard_index = self._locate(table, record_id)
            entry = {"op": "put", "table": table, "id": record_id, "data": data}
            self._apply(self._shards[shard_index], entry)
            self._write({shard_index: [entry]})

    def delete(self, table: str, record_id: int) -> None:
        """Tombstone a record."""
        with self._lock:
            shard_index = self._locate(table, record_id)
            entry = {"op": "delete", "table": table, "id": record_id}
            self._apply(self._shards[shard_index], entry)
            self._write({shard_index: [entry]})

    def _locate(self, table: str, record_id: int) -> int:
        shard_index = self._id_shard.get(record_id)
        if shard_index is None or record_id not in self._shards[shard_index].tables.get(
            table, {}
        ):
            raise KnowledgeBaseError(f"{table}/{record_id} does not exist")
        return shard_index

    def _write(self, per_shard: dict[int, list[dict]]) -> None:
        """One frame per touched shard; honours the crash-injection hook."""
        if self.root is None:
            return
        n_entries = sum(len(entries) for entries in per_shard.values())
        for shard_index in sorted(per_shard):
            shard = self._shards[shard_index]
            entries = per_shard[shard_index]
            payload = json.dumps(entries, sort_keys=True, separators=(",", ":"))
            frame = frame_blob(payload.encode("utf-8"), SHARD_MAGIC, SHARD_FORMAT)
            if self.fault_hook is not None:
                injected = self.fault_hook(entries, frame)
                if injected is not None:
                    # Simulated death mid-write: the injected bytes are the
                    # last to reach the disk; the store is sealed.
                    shard.file.write(injected)
                    shard.file.flush()
                    self._dead = True
                    return
            shard.file.write(frame)
            shard.file.flush()
            shard.digest.update(frame)
            shard.log_bytes += len(frame)
        self._entries_since_snapshot += n_entries
        self._session_appends += n_entries
        if (
            self.snapshot_every is not None
            and self._entries_since_snapshot >= self.snapshot_every
            and self._entries_since_snapshot * 4 >= self._next_id
        ):
            self._write_snapshots()

    # ------------------------------------------------------------- snapshot
    def snapshot(self) -> None:
        """Checkpoint every live shard + the manifest (raises on failure)."""
        with self._lock:
            self._write_snapshots(raise_on_error=True)

    def _write_snapshots(self, raise_on_error: bool = False) -> None:
        if self.root is None:
            return
        for shard in self._shards:
            if shard.quarantined:
                continue
            payload = {
                "python": sys.version_info[:2],
                "max_id": shard.max_id,
                "entries": shard.entries,
                "log_offset": shard.log_bytes,
                "log_prefix_md5": shard.digest.hexdigest(),
                "tables": shard.tables,
            }
            try:
                atomic_write_bytes(
                    shard.snapshot_path,
                    frame_blob(marshal.dumps(payload), _SNAP_MAGIC, _SNAP_FORMAT),
                )
            except Exception:
                # Best-effort: a checkpoint is pure optimisation; the
                # shard log already holds everything.
                if raise_on_error:
                    raise
        self._write_manifest(raise_on_error=raise_on_error)
        self._entries_since_snapshot = 0

    def _write_manifest(self, raise_on_error: bool = True) -> None:
        manifest = {
            "format": _MANIFEST_FORMAT,
            "n_shards": self.n_shards,
            "shards": [shard.manifest_row() for shard in self._shards],
        }
        blob = (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8")
        try:
            atomic_write_bytes(self.manifest_path, blob)
        except Exception:
            if raise_on_error:
                raise

    # ----------------------------------------------------------------- read
    def get(self, table: str, record_id: int) -> dict:
        with self._lock:
            shard_index = self._id_shard.get(record_id)
            if shard_index is not None:
                try:
                    return self._shards[shard_index].tables[table][record_id]
                except KeyError:
                    pass
            raise KnowledgeBaseError(f"{table}/{record_id} does not exist")

    def scan(self, table: str) -> list[tuple[int, dict]]:
        """All (id, record) pairs across surviving shards, id-ordered."""
        with self._lock:
            merged: list[tuple[int, dict]] = []
            for shard in self._shards:
                merged.extend(shard.tables.get(table, {}).items())
            return sorted(merged)

    def count(self, table: str) -> int:
        with self._lock:
            return sum(len(shard.tables.get(table, {})) for shard in self._shards)

    def tables(self) -> list[str]:
        with self._lock:
            names = set()
            for shard in self._shards:
                names.update(shard.tables)
            return sorted(names)

    # ------------------------------------------------------------ lifecycle
    def compact(self) -> None:
        """Rewrite every live shard log without overwritten/deleted entries."""
        with self._lock:
            if self.root is None:
                return
            for shard in self._shards:
                if shard.quarantined:
                    continue
                entries = [
                    {"op": "put", "table": table, "id": record_id, "data": data}
                    for table in sorted(shard.tables)
                    for record_id, data in sorted(shard.tables[table].items())
                ]
                blob = b""
                if entries:
                    payload = json.dumps(entries, sort_keys=True, separators=(",", ":"))
                    blob = frame_blob(payload.encode("utf-8"), SHARD_MAGIC, SHARD_FORMAT)
                if shard.file is not None:
                    shard.file.close()
                atomic_write_bytes(shard.log_path, blob)
                shard.file = open(shard.log_path, "ab")
                shard.digest = hashlib.md5(blob)
                shard.log_bytes = len(blob)
                shard.entries = len(entries)
            if self.snapshot_every is not None:
                self._write_snapshots()
            else:
                # Old snapshots describe pre-compaction logs: drop them and
                # record the rewritten logs in the manifest.
                for shard in self._shards:
                    if not shard.quarantined and shard.snapshot_path.exists():
                        shard.snapshot_path.unlink()
                self._write_manifest()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if not self._dead and self._session_appends:
                if self.snapshot_every is not None and self._entries_since_snapshot:
                    self._write_snapshots()
                else:
                    # Even without snapshots the manifest must describe the
                    # final logs, or the next open distrusts honest bytes.
                    self._write_manifest(raise_on_error=False)
            for shard in self._shards:
                if shard.file is not None:
                    shard.file.close()
                    shard.file = None

    def __enter__(self) -> "ShardedRecordStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# --------------------------------------------------------------------- fsck
def _scan_shard_file(raw: bytes) -> tuple[list[dict], int, int, str, str | None]:
    """Classified read-only walk of one shard log.

    Returns ``(entries, n_frames, valid_bytes, status, detail)`` where
    ``status`` is ``ok`` / ``torn`` / ``corrupt`` and ``valid_bytes`` is
    the salvageable prefix length (frame- and JSON-valid).
    """
    payloads, valid_end, tail = scan_frames(raw, SHARD_MAGIC, SHARD_FORMAT)
    entries: list[dict] = []
    good_end = 0
    for payload in payloads:
        try:
            decoded = json.loads(payload)
            if not isinstance(decoded, list):
                raise ValueError("frame payload is not a list")
        except Exception as exc:
            return (
                entries,
                len(entries),
                good_end,
                "corrupt",
                f"undecodable frame payload at byte {good_end} ({exc})",
            )
        entries.extend(decoded)
        good_end += len(frame_blob(payload, SHARD_MAGIC, SHARD_FORMAT))
    if tail == "clean":
        return entries, len(payloads), valid_end, "ok", None
    if tail == "torn":
        detail = f"torn final frame ({len(raw) - valid_end} bytes)"
        return entries, len(payloads), valid_end, "torn", detail
    return entries, len(payloads), valid_end, "corrupt", f"corrupt frame at byte {valid_end}"


def _check_shard_snapshot(snapshot_path: Path, raw: bytes, valid_bytes: int) -> str:
    """``ok`` / ``invalid`` / ``absent`` for a shard snapshot sidecar."""
    if not snapshot_path.exists():
        return "absent"
    try:
        snap = marshal.loads(
            unframe_blob(snapshot_path.read_bytes(), _SNAP_MAGIC, _SNAP_FORMAT)
        )
        offset = snap["log_offset"]
        if tuple(snap.get("python", ())) != sys.version_info[:2]:
            return "invalid"
        if not isinstance(offset, int) or not 0 <= offset <= valid_bytes:
            return "invalid"
        if hashlib.md5(raw[:offset]).hexdigest() != snap["log_prefix_md5"]:
            return "invalid"
    except Exception:
        return "invalid"
    return "ok"


def fsck_store(root: str | Path, repair: bool = False) -> dict:
    """Verify (and with ``repair=True``, salvage) a KB store on disk.

    Read-only by default: every frame CRC in every shard is checked, the
    manifest is cross-checked against the files, and snapshots are
    validated — nothing is written, so fsck can run against a root that a
    crashed instance left behind before deciding to repair it.

    ``repair=True`` truncates each damaged shard to its valid prefix,
    drops unusable snapshots, and rebuilds the manifest from the files as
    they now stand, reporting exactly what was dropped.  A legacy
    JSON-lines log is refused with the command that converts it.
    """
    root = Path(root)
    _refuse_legacy_log(root)
    if not root.exists():
        raise KnowledgeBaseError(f"{root}: no knowledge base found")
    report: dict = {"root": str(root), "repaired": False, "shards": []}
    manifest = None
    manifest_path = root / MANIFEST_NAME
    if manifest_path.exists():
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except Exception:
            report["manifest"] = "unreadable"
    rows = (manifest or {}).get("shards", [])
    n_shards = int((manifest or {}).get("n_shards", 0)) or _count_shard_files(root)
    report["n_shards"] = n_shards
    healthy = manifest is not None
    for index in range(n_shards):
        log_path = root / _shard_file_name(index)
        mentry = rows[index] if index < len(rows) else None
        entry: dict = {"shard": index, "file": log_path.name}
        if not log_path.exists():
            entry.update(status="missing", frames=0, records=0, bytes_valid=0,
                         bytes_total=0, bytes_dropped=0, max_id=0, snapshot="absent")
            if mentry and int(mentry.get("bytes", 0)) > 0:
                entry["detail"] = (
                    f"manifest records {mentry['bytes']} bytes "
                    f"({mentry.get('records', '?')} records) now lost"
                )
            report["shards"].append(entry)
            healthy = False
            if repair:
                log_path.touch()
            continue
        raw = log_path.read_bytes()
        entries, n_frames, valid_bytes, status, detail = _scan_shard_file(raw)
        records_lost = 0
        if status == "ok" and mentry:
            mbytes = int(mentry.get("bytes", 0))
            if len(raw) < mbytes or (
                hashlib.md5(raw[:mbytes]).hexdigest() != mentry.get("md5")
            ):
                status = "diverged"
                detail = "log does not match the manifest digest"
        if mentry and status != "ok":
            records_lost = max(0, int(mentry.get("records", 0)) - len(entries))
        max_id = max([e.get("id", 0) for e in entries if isinstance(e, dict)] + [0])
        snapshot_state = _check_shard_snapshot(
            log_path.with_name(log_path.name + ".snapshot"), raw, valid_bytes
        )
        entry.update(
            status=status,
            frames=n_frames,
            records=len(entries),
            bytes_valid=valid_bytes,
            bytes_total=len(raw),
            bytes_dropped=len(raw) - valid_bytes,
            records_lost_vs_manifest=records_lost,
            max_id=max_id,
            snapshot=snapshot_state,
        )
        if detail:
            entry["detail"] = detail
        report["shards"].append(entry)
        if status != "ok" or snapshot_state == "invalid":
            healthy = False
        if repair:
            if status in ("torn", "corrupt", "diverged") and valid_bytes < len(raw):
                atomic_write_bytes(log_path, raw[:valid_bytes])
            if snapshot_state == "invalid" or (
                status != "ok" and snapshot_state == "ok"
            ):
                snap = log_path.with_name(log_path.name + ".snapshot")
                if snap.exists():
                    snap.unlink()
    if repair:
        _rebuild_manifest(root, n_shards)
        report["repaired"] = True
    report["healthy"] = healthy
    return report


def _count_shard_files(root: Path) -> int:
    n = 0
    while (root / _shard_file_name(n)).exists():
        n += 1
    return n


def _rebuild_manifest(root: Path, n_shards: int) -> None:
    """Recompute the manifest from the shard files as they stand."""
    shards = []
    for index in range(n_shards):
        log_path = root / _shard_file_name(index)
        raw = log_path.read_bytes() if log_path.exists() else b""
        entries, _, valid_bytes, _, _ = _scan_shard_file(raw)
        shards.append(
            {
                "file": log_path.name,
                "bytes": valid_bytes,
                "md5": hashlib.md5(raw[:valid_bytes]).hexdigest(),
                "records": len(entries),
                "max_id": max(
                    [e.get("id", 0) for e in entries if isinstance(e, dict)] + [0]
                ),
            }
        )
    manifest = {"format": _MANIFEST_FORMAT, "n_shards": n_shards, "shards": shards}
    blob = (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8")
    atomic_write_bytes(root / MANIFEST_NAME, blob)


# -------------------------------------------------------------------- merge
def _collect_content(root: Path) -> tuple[dict, dict, dict]:
    """Read-only content extraction from one store root or legacy log.

    Returns ``(datasets, runs, info)`` where ``datasets`` maps dataset
    content digest -> row data and ``runs`` maps ``(dataset_digest,
    run_digest)`` -> run data.  A torn final frame or line (a crash
    mid-append) is skipped and counted in ``info["torn_bytes_dropped"]``;
    any other corruption raises — a damaged source must be repaired
    before it can be merged, so the merge never has to guess which bytes
    to trust.
    """
    by_id: dict[int, tuple[str, dict]] = {}
    if is_sharded_root(root):
        report = fsck_store(root, repair=False)
        bad = [s for s in report["shards"] if s["status"] not in ("ok", "torn")]
        if bad:
            raise KnowledgeBaseError(
                f"{root}: shard(s) {[s['shard'] for s in bad]} are damaged "
                f"({bad[0].get('detail') or bad[0]['status']}); run "
                "`repro kb fsck --repair` before merging"
            )
        for index in range(report["n_shards"]):
            log_path = root / _shard_file_name(index)
            if not log_path.exists():
                continue
            entries, _, _, _, _ = _scan_shard_file(log_path.read_bytes())
            _fold_entries(entries, by_id)
        torn_bytes = sum(s["bytes_dropped"] for s in report["shards"])
    elif root.is_file():
        entries, torn_bytes = _read_legacy_log(root)
        _fold_entries(entries, by_id)
    else:
        raise KnowledgeBaseError(f"{root}: no knowledge base found")
    datasets: dict[str, dict] = {}
    dataset_digest_by_id: dict[int, str] = {}
    for record_id, (table, data) in sorted(by_id.items()):
        if table == "datasets":
            digest = dataset_content_digest(data.get("name"), data.get("metafeatures"))
            datasets[digest] = data
            dataset_digest_by_id[record_id] = digest
    runs: dict[tuple[str, str], dict] = {}
    orphans = 0
    for record_id, (table, data) in sorted(by_id.items()):
        if table != "runs":
            continue
        parent = dataset_digest_by_id.get(data.get("dataset_id"))
        if parent is None:
            orphans += 1
            continue
        runs[(parent, run_content_digest(data))] = data
    info = {
        "root": str(root),
        "datasets": len(datasets),
        "runs": len(runs),
        "orphan_runs": orphans,
        "torn_bytes_dropped": torn_bytes,
    }
    return datasets, runs, info


def _read_legacy_log(path: Path) -> tuple[list, int]:
    """Entries of a legacy JSON-lines log, read-only.

    Returns ``(entries, torn_bytes)``: an unparseable *final* line is the
    signature of a crash mid-append and is dropped (its byte length
    reported); an unparseable line anywhere else raises.
    """
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    final = len(lines) - (2 if raw.endswith(b"\n") else 1)
    entries = []
    offset = 0
    for i, line in enumerate(lines):
        if line.strip():
            try:
                entries.append(json.loads(line))
            except ValueError:
                if i != final:
                    raise KnowledgeBaseError(
                        f"{path}: corrupt record at byte {offset} before the final "
                        "line; only a torn final line is dropped on conversion"
                    ) from None
                return entries, len(raw) - offset
        offset += len(line) + 1
    return entries, 0


def _fold_entries(entries: list, by_id: dict) -> None:
    for entry in entries:
        if not isinstance(entry, dict):
            continue
        op = entry.get("op", "put")
        table = entry.get("table")
        record_id = entry.get("id")
        if not isinstance(table, str) or not isinstance(record_id, int):
            continue
        if op == "put":
            by_id[record_id] = (table, entry.get("data", {}))
        elif op == "delete":
            by_id.pop(record_id, None)


def merge_kb_roots(
    dest: str | Path, sources: list, *, n_shards: int | None = None
) -> dict:
    """Union the run histories of ``sources`` into ``dest``, deterministically.

    Records dedup by **content**: a dataset by the digest of its name +
    meta-features, a run by (owning dataset digest, digest of its
    algorithm/config/outcome).  The destination is rebuilt canonically —
    datasets in digest order, each immediately followed by its runs in
    digest order, ids reassigned 1..N — so merging the same set of roots
    in any order (and starting from any of them) produces **byte-identical
    shard logs, snapshots, and manifest**.  The destination's existing
    content participates in the union and its shard count is kept.
    Sources may be store roots or legacy JSON-lines logs; merging a log
    into a fresh root is how it is converted.

    Returns a report with per-source record counts and the merged totals.
    """
    dest = Path(dest)
    _refuse_legacy_log(dest)
    datasets: dict[str, dict] = {}
    runs: dict[tuple[str, str], dict] = {}
    merged_sources = []
    roots = ([dest] if dest.exists() else []) + [Path(s) for s in sources]
    if not roots:
        raise KnowledgeBaseError("nothing to merge: no destination and no sources")
    for root in roots:
        src_datasets, src_runs, info = _collect_content(root)
        datasets.update(src_datasets)
        runs.update(src_runs)
        merged_sources.append(info)

    runs_by_dataset: dict[str, list[tuple[str, dict]]] = {}
    for (dataset_digest, run_digest), data in runs.items():
        runs_by_dataset.setdefault(dataset_digest, []).append((run_digest, data))

    existing_shards = None
    if (dest / MANIFEST_NAME).exists():
        existing_shards = int(
            json.loads((dest / MANIFEST_NAME).read_text(encoding="utf-8"))["n_shards"]
        )
    if n_shards is not None and existing_shards is not None and n_shards != existing_shards:
        raise KnowledgeBaseError(
            f"{dest}: has {existing_shards} shards; cannot merge into "
            f"{n_shards} (shard count is fixed at creation)"
        )
    tmp = dest.with_name(dest.name + ".merge-tmp")
    if tmp.exists():
        shutil.rmtree(tmp)
    store = ShardedRecordStore(
        tmp, n_shards=existing_shards or n_shards, snapshot_every=None
    )
    try:
        for dataset_digest in sorted(datasets):
            rows = [("datasets", datasets[dataset_digest])]
            dataset_id_placeholder = store.peek_next_id()
            for _, run_data in sorted(
                runs_by_dataset.get(dataset_digest, []), key=lambda item: item[0]
            ):
                run_row = dict(run_data)
                run_row["dataset_id"] = dataset_id_placeholder
                rows.append(("runs", run_row))
            store.append_many(rows)
        store.snapshot()
    finally:
        store.close()

    # Swap the rebuilt store into place.  Per-file replaces are atomic; the
    # window where files mix is tiny and fsck detects (via the manifest) a
    # swap a crash interrupted.
    dest.mkdir(parents=True, exist_ok=True)
    for name in sorted(p.name for p in tmp.iterdir()):
        if name == MANIFEST_NAME:
            continue
        os.replace(tmp / name, dest / name)
    os.replace(tmp / MANIFEST_NAME, dest / MANIFEST_NAME)
    shutil.rmtree(tmp, ignore_errors=True)
    return {
        "dest": str(dest),
        "sources": merged_sources,
        "datasets": len(datasets),
        "runs": len(runs),
    }
