"""Durable, versioned model registry for prediction serving.

A registry persists the *servable* slice of a finished
:class:`~repro.core.result.SmartMLResult` — fitted preprocessing pipeline,
winning model, optional weighted ensemble, plus the label/feature metadata
needed to turn raw client rows into predictions — under a caller-chosen
model id.  Registering the same id again creates a new **version**; loads
resolve to the latest version unless one is pinned.

Durability reuses the knowledge base's snapshot discipline
(:mod:`repro.kb.snapshots`): each version is one file written atomically
(temp + fsync + ``os.replace``) and framed with a magic tag, a schema
version, and a CRC32 over the marshal payload.  Unlike the KB sidecar —
where a bad snapshot silently falls back to the log — a model snapshot *is*
the source of truth, so corruption, truncation, and schema mismatches all
fail loudly with a clear error instead of serving a guessed model.

Loads are lazy (nothing is deserialised at construction; a server restart
is O(listdir)) and decoded models sit in a small LRU cache so a registry
holding thousands of models serves a hot working set from memory.

Thread safety: every public method takes the registry lock.  The REST
service additionally funnels *mutations* (register/delete) through the
:class:`~repro.api.jobs.JobManager` single-writer thread, mirroring the KB
append discipline, so the directory only ever has one writer.
"""

from __future__ import annotations

import marshal
import re
import shutil
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro._lazy import import_pipeline
from repro.data.dataset import Dataset
from repro.exceptions import SmartMLError
from repro.kb.snapshots import (
    SnapshotIntegrityError,
    SnapshotSchemaError,
    atomic_write_bytes,
    frame_blob,
    unframe_blob,
)
from repro.serving.codec import CodecError, decode_state, encode_state

__all__ = [
    "ModelRegistry",
    "RegisteredModel",
    "RegistryError",
    "ModelNotFoundError",
    "MODEL_SNAPSHOT_MAGIC",
    "MODEL_SNAPSHOT_FORMAT",
]

#: Frame tag of a model snapshot file.
MODEL_SNAPSHOT_MAGIC = b"SMLM"
#: Schema version; bump when the payload layout changes.
MODEL_SNAPSHOT_FORMAT = 1

_MODEL_ID_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_VERSION_RE = re.compile(r"^v(\d+)\.model$")


class RegistryError(SmartMLError):
    """Registry-level failure (bad id, corrupt snapshot, unservable result)."""


class ModelNotFoundError(RegistryError):
    """The referenced model id (or version) is not in the registry."""

    http_status = 404


@dataclass
class RegisteredModel:
    """One decoded registry entry, ready to serve predictions."""

    model_id: str
    version: int
    metadata: dict
    pipeline: object
    model: object
    ensemble: object | None = None
    class_names: list[str] = field(default_factory=list)
    feature_names: list[str] = field(default_factory=list)
    categorical_mask: np.ndarray | None = None
    n_features: int = 0

    def to_result(self):
        """Rebuild a :class:`~repro.core.result.SmartMLResult` view.

        The reconstructed result carries exactly the servable fields, so
        ``registry.load(id).to_result().predict(ds)`` runs the *same*
        ``SmartMLResult.predict`` code path as the in-process result it
        was registered from — one prediction contract, two provenances.
        """
        from repro.core.result import SmartMLResult

        return SmartMLResult(
            dataset_name=str(self.metadata.get("dataset_name", self.model_id)),
            best_algorithm=str(self.metadata.get("algorithm", "")),
            best_config=dict(self.metadata.get("best_config", {})),
            validation_accuracy=float(self.metadata.get("validation_accuracy", 0.0)),
            model=self.model,
            pipeline=self.pipeline,
            ensemble=self.ensemble,
        )

    def dataset_from_rows(self, rows) -> Dataset:
        """Wrap raw client rows in a :class:`Dataset` shaped like training.

        Labels are unknown at predict time; a zero vector keeps the
        container honest (nothing downstream of ``transform`` reads it).
        """
        X = np.asarray(rows, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2 or (self.n_features and X.shape[1] != self.n_features):
            raise RegistryError(
                f"model {self.model_id!r} expects rows of {self.n_features} "
                f"features, got shape {tuple(X.shape)}"
            )
        return Dataset(
            X=X,
            y=np.zeros(X.shape[0], dtype=np.int64),
            categorical_mask=(
                self.categorical_mask.copy() if self.categorical_mask is not None else None
            ),
            feature_names=list(self.feature_names),
            class_names=list(self.class_names),
            name=f"{self.model_id}-predict",
        )

    def predict_rows(self, rows, proba: bool = False, use_ensemble: bool = False):
        """Predict raw rows through the full pipeline (see :meth:`to_result`)."""
        result = self.to_result()
        ds = self.dataset_from_rows(rows)
        if proba:
            return result.predict_proba(ds, use_ensemble=use_ensemble)
        return result.predict(ds, use_ensemble=use_ensemble)

    def labels_for(self, predictions: np.ndarray) -> list[str]:
        """Map integer class codes back to registered class names."""
        names = self.class_names
        return [
            names[int(code)] if 0 <= int(code) < len(names) else str(int(code))
            for code in predictions
        ]

    def summary(self) -> dict:
        """JSON wire form for the REST listing endpoints."""
        return {
            "model_id": self.model_id,
            "version": self.version,
            "algorithm": self.metadata.get("algorithm"),
            "dataset_name": self.metadata.get("dataset_name"),
            "validation_accuracy": self.metadata.get("validation_accuracy"),
            "n_features": self.n_features,
            "n_classes": len(self.class_names),
            "registered_at": self.metadata.get("registered_at"),
            "has_ensemble": self.ensemble is not None,
        }


class ModelRegistry:
    """Versioned snapshot store of fitted pipelines.

    Parameters
    ----------
    root:
        Directory holding one subdirectory per model id, each with
        ``v<N>.model`` snapshot files.  ``None`` keeps every snapshot in
        memory (same encode/verify/decode code, no durability) — used by
        tests and throwaway servers.
    cache_size:
        Decoded entries kept hot in the LRU cache.
    """

    def __init__(
        self,
        root: str | Path | None = None,
        cache_size: int = 8,
        clock=time.time,
    ):
        if cache_size < 1:
            raise RegistryError("cache_size must be >= 1")
        #: Wall-clock source for ``registered_at`` stamps; injectable so the
        #: crash-recovery suite can assert registry directories byte-identical
        #: across a kill-and-restart.
        self.clock = clock
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.cache_size = cache_size
        self._lock = threading.RLock()
        #: In-memory blob store when rootless: model_id -> {version: bytes}.
        self._blobs: dict[str, dict[int, bytes]] = {}
        #: Decoded LRU: (model_id, version) -> RegisteredModel.
        self._cache: OrderedDict[tuple[str, int], RegisteredModel] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------ validation
    @staticmethod
    def validate_model_id(model_id) -> str:
        """Check a model id is a safe path segment; returns it unchanged."""
        if not isinstance(model_id, str) or not _MODEL_ID_RE.match(model_id):
            raise RegistryError(
                f"invalid model id {model_id!r}: use 1-64 characters from "
                "[A-Za-z0-9_.-], starting with a letter or digit"
            )
        return model_id

    # -------------------------------------------------------------- register
    def register(
        self,
        model_id: str,
        result,
        dataset=None,
        metadata: dict | None = None,
    ) -> dict:
        """Snapshot ``result``'s servable state under ``model_id``.

        ``result`` is a :class:`~repro.core.result.SmartMLResult`.  Passing
        the *raw* training ``dataset`` pins the row contract — class and
        feature names, categorical mask, expected column count — so predict
        requests can be validated and decoded without the caller replaying
        training-time conventions.  Returns ``{"model_id", "version", ...}``.
        """
        self.validate_model_id(model_id)
        if getattr(result, "pipeline", None) is None or getattr(result, "model", None) is None:
            raise RegistryError(
                "result carries no fitted pipeline/model; nothing to register"
            )
        meta = {
            "dataset_name": getattr(result, "dataset_name", model_id),
            "algorithm": getattr(result, "best_algorithm", ""),
            "best_config": self._plain_config(getattr(result, "best_config", {})),
            "validation_accuracy": float(getattr(result, "validation_accuracy", 0.0)),
            "registered_at": self.clock(),
        }
        if metadata:
            meta.update(metadata)
        class_names, feature_names, categorical_mask, n_features = self._shape_info(
            result, dataset
        )
        try:
            state = encode_state(
                {
                    "pipeline": result.pipeline,
                    "model": result.model,
                    "ensemble": getattr(result, "ensemble", None),
                }
            )
        except CodecError as exc:
            raise RegistryError(f"cannot serialise model {model_id!r}: {exc}") from exc
        with self._lock:
            version = self._next_version(model_id)
            payload = {
                "model_id": model_id,
                "version": version,
                "meta": meta,
                "class_names": list(class_names),
                "feature_names": list(feature_names),
                "categorical_mask": (
                    categorical_mask.astype(bool).tolist()
                    if categorical_mask is not None
                    else None
                ),
                "n_features": int(n_features),
                "state": state,
            }
            blob = frame_blob(
                marshal.dumps(payload), MODEL_SNAPSHOT_MAGIC, MODEL_SNAPSHOT_FORMAT
            )
            if self.root is None:
                self._blobs.setdefault(model_id, {})[version] = blob
            else:
                directory = self.root / model_id
                directory.mkdir(parents=True, exist_ok=True)
                atomic_write_bytes(directory / f"v{version}.model", blob)
            # A re-registered id must serve the new version immediately.
            entry = self._decode(model_id, version, blob)
            self._cache_put(entry)
        return {
            "model_id": model_id,
            "version": version,
            "algorithm": meta["algorithm"],
            "validation_accuracy": meta["validation_accuracy"],
            "snapshot_bytes": len(blob),
        }

    @staticmethod
    def _plain_config(config: dict) -> dict:
        return {
            k: (v.item() if hasattr(v, "item") else v) for k, v in dict(config).items()
        }

    @staticmethod
    def _shape_info(result, dataset):
        """Label/feature metadata for wire responses and row validation.

        The training dataset, when provided, is authoritative: the pipeline
        may reduce columns internally, but predict requests arrive in *raw*
        width.  Without it we fall back to the model's class count and skip
        row-width validation.
        """
        if dataset is not None:
            return (
                list(dataset.class_names),
                list(dataset.feature_names),
                np.asarray(dataset.categorical_mask, dtype=bool),
                int(dataset.n_features),
            )
        n_classes = int(getattr(getattr(result, "model", None), "n_classes_", 0) or 0)
        return [f"c{k}" for k in range(n_classes)], [], None, 0

    # ------------------------------------------------------------------ read
    def load(self, model_id: str, version: int | None = None) -> RegisteredModel:
        """Decoded entry for ``model_id`` (latest version by default)."""
        self.validate_model_id(model_id)
        with self._lock:
            resolved = self._resolve_version(model_id, version)
            key = (model_id, resolved)
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
                self._hits += 1
                return entry
            self._misses += 1
            blob = self._read_blob(model_id, resolved)
            entry = self._decode(model_id, resolved, blob)
            self._cache_put(entry)
            return entry

    def info(self, model_id: str, version: int | None = None) -> dict:
        """Summary + available versions without decoding anything new."""
        with self._lock:
            versions = self._versions(model_id)
            if not versions:
                raise ModelNotFoundError(f"unknown model {model_id!r}")
            entry = self.load(model_id, version)
            payload = entry.summary()
            payload["versions"] = versions
            return payload

    def list_models(self) -> list[dict]:
        """Summaries of every model's latest version, id-ordered."""
        with self._lock:
            out = []
            for model_id in self._model_ids():
                try:
                    entry = self.load(model_id)
                except RegistryError as exc:
                    out.append({"model_id": model_id, "error": str(exc)})
                    continue
                payload = entry.summary()
                payload["versions"] = self._versions(model_id)
                out.append(payload)
            return out

    def delete(self, model_id: str) -> dict:
        """Remove every version of ``model_id``; returns what was removed."""
        self.validate_model_id(model_id)
        with self._lock:
            versions = self._versions(model_id)
            if not versions:
                raise ModelNotFoundError(f"unknown model {model_id!r}")
            if self.root is None:
                self._blobs.pop(model_id, None)
            else:
                shutil.rmtree(self.root / model_id)
            for key in [k for k in self._cache if k[0] == model_id]:
                del self._cache[key]
            return {"model_id": model_id, "deleted_versions": versions}

    # ------------------------------------------------- crash-recovery support
    def peek_next_version(self, model_id: str) -> int:
        """The version :meth:`register` would assign next (write-ahead peek).

        The job journal records this *before* the register as a commit
        intent; hold the registry lock (reentrant) across peek + register
        so the prediction cannot be raced stale.
        """
        self.validate_model_id(model_id)
        with self._lock:
            return self._next_version(model_id)

    def has_version(self, model_id: str, version: int) -> bool:
        """Whether a specific snapshot version exists (commit verification)."""
        with self._lock:
            return int(version) in self._versions(model_id)

    def registration_summary(self, model_id: str, version: int) -> dict:
        """Rebuild the dict :meth:`register` returned for an existing version.

        Used by journal recovery: a job whose registration committed before
        the crash gets the same registration payload on replay without
        writing a duplicate version.
        """
        with self._lock:
            resolved = self._resolve_version(model_id, version)
            blob = self._read_blob(model_id, resolved)
            entry = self._decode(model_id, resolved, blob)
            return {
                "model_id": model_id,
                "version": resolved,
                "algorithm": entry.metadata.get("algorithm", ""),
                "validation_accuracy": entry.metadata.get("validation_accuracy", 0.0),
                "snapshot_bytes": len(blob),
            }

    def lock(self):
        """The registry's reentrant lock (single-writer peek+write spans)."""
        return self._lock

    def cache_info(self) -> dict:
        """Hit/miss/eviction counters plus current occupancy (for tests)."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "size": len(self._cache),
                "capacity": self.cache_size,
            }

    # ------------------------------------------------------------- internals
    def _model_ids(self) -> list[str]:
        if self.root is None:
            return sorted(self._blobs)
        return sorted(
            p.name for p in self.root.iterdir() if p.is_dir() and _MODEL_ID_RE.match(p.name)
        )

    def _versions(self, model_id: str) -> list[int]:
        if self.root is None:
            return sorted(self._blobs.get(model_id, {}))
        directory = self.root / model_id
        if not directory.is_dir():
            return []
        found = []
        for item in directory.iterdir():
            match = _VERSION_RE.match(item.name)
            if match:
                found.append(int(match.group(1)))
        return sorted(found)

    def _next_version(self, model_id: str) -> int:
        versions = self._versions(model_id)
        return (versions[-1] + 1) if versions else 1

    def _resolve_version(self, model_id: str, version: int | None) -> int:
        versions = self._versions(model_id)
        if not versions:
            raise ModelNotFoundError(f"unknown model {model_id!r}")
        if version is None:
            return versions[-1]
        if int(version) not in versions:
            raise ModelNotFoundError(
                f"model {model_id!r} has no version {version} (available: {versions})"
            )
        return int(version)

    def _read_blob(self, model_id: str, version: int) -> bytes:
        if self.root is None:
            return self._blobs[model_id][version]
        path = self.root / model_id / f"v{version}.model"
        try:
            return path.read_bytes()
        except OSError as exc:
            raise ModelNotFoundError(
                f"model {model_id!r} v{version} vanished from disk: {exc}"
            ) from exc

    def _decode(self, model_id: str, version: int, blob: bytes) -> RegisteredModel:
        what = f"model snapshot {model_id!r} v{version}"
        try:
            raw = unframe_blob(blob, MODEL_SNAPSHOT_MAGIC, MODEL_SNAPSHOT_FORMAT, what=what)
        except SnapshotSchemaError as exc:
            raise RegistryError(str(exc)) from exc
        except SnapshotIntegrityError as exc:
            raise RegistryError(str(exc)) from exc
        import_pipeline()  # a snapshot names classes across the pipeline
        try:
            payload = marshal.loads(raw)
            if not isinstance(payload, dict):
                raise ValueError("payload is not a mapping")
            state = decode_state(payload["state"])
            mask = payload.get("categorical_mask")
            return RegisteredModel(
                model_id=str(payload.get("model_id", model_id)),
                version=int(payload.get("version", version)),
                metadata=dict(payload.get("meta", {})),
                pipeline=state["pipeline"],
                model=state["model"],
                ensemble=state.get("ensemble"),
                class_names=[str(n) for n in payload.get("class_names", [])],
                feature_names=[str(n) for n in payload.get("feature_names", [])],
                categorical_mask=(np.asarray(mask, dtype=bool) if mask is not None else None),
                n_features=int(payload.get("n_features", 0)),
            )
        except (CodecError, ValueError, KeyError, TypeError, EOFError) as exc:
            raise RegistryError(f"{what} is corrupt: {exc}") from exc

    def _cache_put(self, entry: RegisteredModel) -> None:
        key = (entry.model_id, entry.version)
        self._cache[key] = entry
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)
            self._evictions += 1
