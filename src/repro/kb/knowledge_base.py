"""The SmartML knowledge base.

Two tables over the :class:`~repro.kb.shards.ShardedRecordStore`:

* ``datasets`` — one row per processed dataset: name + the 25 meta-features;
* ``runs`` — one row per (dataset, algorithm) tuning outcome: accuracy and
  the best configuration found.

For a new dataset the KB answers one question — *which algorithms, with
which starting configurations, should SMAC tune?* — via the weighted
nearest-neighbour rule in :mod:`repro.kb.similarity`.  Every SmartML run
appends its own results, so the KB (and with it the framework) improves
monotonically with use: the paper's "continuously updated knowledge base".

Nomination cost is independent of how many experiments ever ran: the KB
keeps two incrementally maintained read caches alive across appends —

* a columnar float64 meta-feature matrix inside a live
  :class:`~repro.kb.similarity.SimilarityIndex` (appends are O(d); the
  first query after an append re-z-scores the matrix exactly), and
* a per-dataset leaderboard cache (``dataset_id -> {algorithm: (best
  accuracy, config)}``) updated as each run lands, so ``nominate`` fetches
  only the neighbours' boards instead of re-scanning every run record.

Both caches are built lazily from one store scan on first read and then
updated in place under the store lock, in append order; results are
identical to rebuilding from a cold scan (``tests/test_kb_scale_
consistency.py`` asserts this property).  Code that mutates ``kb.store``
directly must call :meth:`KnowledgeBase.refresh_caches` afterwards.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.exceptions import KnowledgeBaseError
from repro.kb.shards import ShardedRecordStore, merge_kb_roots
from repro.kb.similarity import (
    Neighbor,
    Nomination,
    SimilarityIndex,
    distance_only_nomination,
    weighted_nomination,
)
from repro.metafeatures import MetaFeatures

__all__ = ["KnowledgeBase"]


class KnowledgeBase:
    """Meta-learning memory of processed datasets and tuning outcomes.

    Parameters
    ----------
    path:
        Store root directory (``None`` keeps the KB in memory).  A legacy
        JSON-lines log file is refused with the ``repro kb merge`` command
        that converts it.
    snapshot_every:
        Forwarded to :class:`~repro.kb.shards.ShardedRecordStore`: write a
        startup snapshot every N appended records (``None`` disables).
        Only valid when the KB opens the store itself — configure a passed
        ``store`` directly instead.
    store:
        Use an existing store instead of opening one.  This is how a cold
        cache rebuild over live data is expressed:
        ``KnowledgeBase(store=kb.store)`` shares the records but none of
        the caches.
    shards:
        Shard count when ``path`` is created (default 1).  An existing
        root opens with its manifest's shard count, no flag needed.
    """

    _UNSET = object()

    def __init__(
        self,
        path: str | Path | None = None,
        *,
        snapshot_every: int | None = _UNSET,  # type: ignore[assignment]
        store: ShardedRecordStore | None = None,
        shards: int | None = None,
    ):
        if store is not None and path is not None:
            raise ValueError("pass either path or store, not both")
        if store is not None and snapshot_every is not self._UNSET:
            raise ValueError(
                "snapshot_every configures a store the KB opens itself; "
                "set it on the store you are passing instead"
            )
        if store is not None and shards is not None:
            raise ValueError("shards configures a store the KB opens itself")
        if shards is not None and path is None:
            raise ValueError("shards needs a path (the KB root directory)")
        if snapshot_every is self._UNSET:
            snapshot_every = 1000
        if store is None:
            store = ShardedRecordStore(path, n_shards=shards, snapshot_every=snapshot_every)
        self.store = store
        self._snapshot_every = snapshot_every
        # Read caches, built lazily on first read and maintained
        # incrementally on every append (under the store lock, so cache
        # updates happen in append order and readers never see a half
        # -applied batch).
        self._index: SimilarityIndex | None = None
        self._boards: dict[int, dict[str, tuple[float, dict]]] | None = None

    # --------------------------------------------------------------- writes
    def add_dataset(self, name: str, metafeatures: MetaFeatures) -> int:
        """Register a processed dataset; returns its KB id."""
        with self.store.locked():
            dataset_id = self.store.append(
                "datasets",
                {"name": name, "metafeatures": metafeatures.to_dict()},
            )
            if self._index is not None:
                self._index.append(dataset_id, metafeatures.to_vector())
        return dataset_id

    def add_run(
        self,
        dataset_id: int,
        algorithm: str,
        config: dict,
        accuracy: float,
        n_folds: int = 0,
        budget_s: float = 0.0,
    ) -> int:
        """Record one tuning outcome for (dataset, algorithm)."""
        stored_config = dict(config)
        with self.store.locked():
            self.store.get("datasets", dataset_id)  # raises if unknown
            run_id = self.store.append(
                "runs",
                {
                    "dataset_id": dataset_id,
                    "algorithm": algorithm,
                    "config": stored_config,
                    "accuracy": float(accuracy),
                    "n_folds": int(n_folds),
                    "budget_s": float(budget_s),
                },
            )
            self._board_update(dataset_id, algorithm, float(accuracy), stored_config)
        return run_id

    def add_result_batch(
        self, name: str, metafeatures: MetaFeatures, runs: list[dict]
    ) -> int:
        """Land one finished experiment — dataset row + all run rows — as a
        single batched append.

        ``runs`` entries carry ``algorithm``, ``config``, ``accuracy`` and
        optionally ``n_folds`` / ``budget_s``.  Ids are assigned exactly as
        the sequential ``add_dataset`` + N × ``add_run`` path would assign
        them, but the store flushes once and the log lines are contiguous —
        this is the unit of write the async job service's single KB writer
        thread performs per job.  The read caches (similarity index,
        leaderboards) absorb the batch incrementally before the lock is
        released, so a concurrent ``nominate`` sees the whole experiment or
        none of it.  Returns the new dataset id.
        """
        with self.store.locked():
            dataset_id = self.store.peek_next_id()
            rows = [
                ("datasets", {"name": name, "metafeatures": metafeatures.to_dict()})
            ] + [
                (
                    "runs",
                    {
                        "dataset_id": dataset_id,
                        "algorithm": run["algorithm"],
                        "config": dict(run["config"]),
                        "accuracy": float(run["accuracy"]),
                        "n_folds": int(run.get("n_folds", 0)),
                        "budget_s": float(run.get("budget_s", 0.0)),
                    },
                )
                for run in runs
            ]
            ids = self.store.append_many(rows)
            assert ids[0] == dataset_id
            if self._index is not None:
                self._index.append(dataset_id, metafeatures.to_vector())
            for _, data in rows[1:]:
                self._board_update(
                    dataset_id, data["algorithm"], data["accuracy"], data["config"]
                )
        return dataset_id

    def _board_update(
        self, dataset_id: int, algorithm: str, accuracy: float, config: dict
    ) -> None:
        """Fold one run into the leaderboard cache (call under store lock)."""
        if self._boards is None:
            return
        per_ds = self._boards.setdefault(dataset_id, {})
        if algorithm not in per_ds or accuracy > per_ds[algorithm][0]:
            per_ds[algorithm] = (accuracy, config)

    # ---------------------------------------------------------------- reads
    def n_datasets(self) -> int:
        return self.store.count("datasets")

    def n_runs(self) -> int:
        return self.store.count("runs")

    def dataset_vectors(self) -> tuple[list[int], np.ndarray]:
        """(ids, matrix) of all stored meta-feature vectors.

        This is the scan-based reference path; the hot read path keeps the
        matrix alive inside the cached :class:`SimilarityIndex` instead.
        """
        ids: list[int] = []
        rows: list[np.ndarray] = []
        for record_id, data in self.store.scan("datasets"):
            ids.append(record_id)
            rows.append(MetaFeatures.from_dict(data["metafeatures"]).to_vector())
        matrix = np.stack(rows) if rows else np.zeros((0, len(MetaFeatures.__dataclass_fields__)))
        return ids, matrix

    def _ensure_boards(self) -> None:
        """Build the leaderboard cache from one run scan (under store lock)."""
        if self._boards is not None:
            return
        boards: dict[int, dict[str, tuple[float, dict]]] = {}
        for _, run in self.store.scan("runs"):
            per_ds = boards.setdefault(run["dataset_id"], {})
            algorithm = run["algorithm"]
            accuracy = float(run["accuracy"])
            if algorithm not in per_ds or accuracy > per_ds[algorithm][0]:
                per_ds[algorithm] = (accuracy, run["config"])
        self._boards = boards

    def _ensure_index(self) -> None:
        """Build the similarity index from one dataset scan (under store lock)."""
        if self._index is not None:
            return
        ids, matrix = self.dataset_vectors()
        self._index = SimilarityIndex(ids, matrix)

    def _board_rows(self, dataset_id: int) -> list[tuple[str, float, dict]]:
        board = self._boards.get(dataset_id, {})
        return [
            (algorithm, accuracy, config)
            for algorithm, (accuracy, config) in sorted(board.items())
        ]

    def leaderboard(self, dataset_id: int) -> list[tuple[str, float, dict]]:
        """Per-algorithm best (algorithm, accuracy, config) for one dataset."""
        with self.store.locked():
            self._ensure_boards()
            return self._board_rows(dataset_id)

    def all_leaderboards(self) -> dict[int, list[tuple[str, float, dict]]]:
        """Leaderboards for every stored dataset (rendered from the cache)."""
        with self.store.locked():
            self._ensure_boards()
            return {dataset_id: self._board_rows(dataset_id) for dataset_id in self._boards}

    def refresh_caches(self) -> None:
        """Drop the read caches so the next read rebuilds from the store.

        Only needed after mutating ``kb.store`` directly; the KB's own
        write methods keep the caches current.
        """
        with self.store.locked():
            self._index = None
            self._boards = None

    # ------------------------------------------------------------ robustness
    @property
    def degraded(self) -> bool:
        """Whether the store quarantined a shard (serving from survivors)."""
        return self.store.degraded

    def health(self) -> dict:
        """Store robustness gauges (``/healthz``)."""
        return self.store.health()

    def shard_for(self, name: str, metafeatures: MetaFeatures) -> int:
        """Which shard a dataset (and its runs) lands in."""
        return self.store.shard_for(
            "datasets", {"name": name, "metafeatures": metafeatures.to_dict()}
        )

    def merge(self, sources, *, n_shards: int | None = None) -> dict:
        """Union other instance roots' run histories into this KB.

        ``sources`` is a path or list of paths to other KB roots (or
        legacy JSON-lines logs).  Content-digest dedup makes the
        union idempotent and the canonical rebuild makes it
        order-independent: merging the same roots in any order leaves
        byte-identical files behind (see :func:`repro.kb.shards.
        merge_kb_roots`).  The store is rebuilt and reopened; read caches
        refresh on next use.  Refuses while degraded — repair first, or
        quarantined records would silently vanish from the union.
        """
        if isinstance(sources, (str, Path)):
            sources = [sources]
        if self.degraded:
            raise KnowledgeBaseError(
                "refusing to merge a degraded KB: quarantined shards would "
                "be silently dropped; run `repro kb fsck --repair` first"
            )
        path = self.store.root
        if path is None:
            raise KnowledgeBaseError("an in-memory KB has no root to merge into")
        self.store.close()
        try:
            report = merge_kb_roots(path, list(sources), n_shards=n_shards)
        finally:
            self.store = ShardedRecordStore(path, snapshot_every=self._snapshot_every)
            self._index = None
            self._boards = None
        return report

    # ----------------------------------------------------------- similarity
    def similar_datasets(self, metafeatures: MetaFeatures, k: int = 3) -> list[Neighbor]:
        """The k most similar stored datasets."""
        with self.store.locked():
            self._ensure_index()
            return self._index.query(metafeatures.to_vector(), k)

    def nominate(
        self,
        metafeatures: MetaFeatures,
        n_algorithms: int = 3,
        n_neighbors: int = 3,
        mode: str = "weighted",
    ) -> list[Nomination]:
        """Candidate algorithms + warm-start configs for a new dataset.

        ``mode="weighted"`` is the paper's rule; ``mode="distance"`` is the
        ablation control.  An empty KB returns no nominations (the caller
        falls back to a default portfolio).  Only the neighbours'
        leaderboards are fetched — the nomination rule never looks at any
        other dataset's runs, so the full-scan ``all_leaderboards`` stays
        off this path.
        """
        neighbors = self.similar_datasets(metafeatures, k=n_neighbors)
        if not neighbors:
            return []
        with self.store.locked():
            self._ensure_boards()
            leaderboards = {
                neighbor.dataset_id: self._board_rows(neighbor.dataset_id)
                for neighbor in neighbors
            }
        if mode == "weighted":
            return weighted_nomination(neighbors, leaderboards, n_algorithms)
        return distance_only_nomination(neighbors, leaderboards, n_algorithms)

    # ------------------------------------------------------------ lifecycle
    def snapshot(self) -> None:
        """Checkpoint the store so the next open replays only the log tail."""
        self.store.snapshot()

    def compact(self) -> None:
        self.store.compact()

    def close(self) -> None:
        self.store.close()

    def __enter__(self) -> "KnowledgeBase":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
