"""Knowledge-base scale benchmark: nomination latency and startup time.

Populates a file-backed one-shard KB with ``--datasets`` synthetic experiment
outcomes (``--runs-per-dataset`` runs each) through the batched append
path, then drives the busy-service pattern — one experiment lands between
consecutive nominations — and times each query through:

* **fast path** — the live incremental read caches
  (``KnowledgeBase.nominate``: columnar similarity index + leaderboard
  cache + argpartition top-k);
* **seed path** — the pre-incremental full-scan implementation replicated
  here as the reference: rebuild the meta-feature matrix from the store,
  z-score it, full stable argsort, and scan every run record for the
  leaderboards, on every query (exactly what the seed code paid per
  nomination once any append had invalidated its caches).

Nominations from the two paths are asserted identical on every query.

A third row replays the identical workload (same rng seed, same batch
sequence) into a root with ``--shards`` content-addressed shard logs and
asserts its nominations are identical to the one-shard KB's, timing
populate, nominate, and startup for the N-shard layout.  Startup compares
the one-shard store's open via snapshot + log-tail replay (every record
deserialised, ids correct, accepting reads/writes) against a full replay
of the same shard log with the snapshot hidden, asserting the deep
restored states match record for record.  Writes ``BENCH_kb_scale.json``
at the repo root.

Run: ``PYTHONPATH=src python benchmarks/bench_kb_scale.py``             (10k datasets / 50k runs)
Smoke: ``... --datasets 300 --runs-per-dataset 3 --queries 10``
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.kb import (
    KnowledgeBase,
    Neighbor,
    ShardedRecordStore,
    weighted_nomination,
    zscore_normaliser,
)
from repro.metafeatures import MetaFeatures

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_kb_scale.json"

ALGORITHMS = [
    "knn", "rpart", "svm", "random_forest", "lda", "naive_bayes", "j48", "c50",
]


def random_metafeatures(rng: np.random.Generator) -> MetaFeatures:
    return MetaFeatures.from_vector(rng.normal(size=25) * rng.uniform(0.5, 50.0, size=25))


def random_runs(rng: np.random.Generator, n_runs: int) -> list[dict]:
    return [
        {
            "algorithm": ALGORITHMS[int(rng.integers(len(ALGORITHMS)))],
            "config": {
                "alpha": float(rng.uniform()),
                "depth": int(rng.integers(1, 40)),
            },
            "accuracy": float(rng.uniform(0.4, 0.99)),
            "n_folds": 3,
            "budget_s": 1.0,
        }
        for _ in range(n_runs)
    ]


# --------------------------------------------------------------- seed path
# Verbatim replica of the pre-incremental read path: every query rebuilds
# the similarity state from the store and scans every run record.


def seed_dataset_vectors(kb: KnowledgeBase):
    ids, rows = [], []
    for record_id, data in kb.store.scan("datasets"):
        ids.append(record_id)
        rows.append(MetaFeatures.from_dict(data["metafeatures"]).to_vector())
    return ids, np.stack(rows)


def seed_all_leaderboards(kb: KnowledgeBase):
    best: dict[int, dict[str, tuple[float, dict]]] = {}
    for _, run in kb.store.scan("runs"):
        per_ds = best.setdefault(run["dataset_id"], {})
        algorithm = run["algorithm"]
        accuracy = float(run["accuracy"])
        if algorithm not in per_ds or accuracy > per_ds[algorithm][0]:
            per_ds[algorithm] = (accuracy, run["config"])
    return {
        dataset_id: [
            (algorithm, accuracy, config)
            for algorithm, (accuracy, config) in sorted(board.items())
        ]
        for dataset_id, board in best.items()
    }


def seed_nominate(kb: KnowledgeBase, metafeatures: MetaFeatures,
                  n_algorithms: int = 3, n_neighbors: int = 3):
    ids, matrix = seed_dataset_vectors(kb)
    mean, std = zscore_normaliser(matrix)
    z_matrix = (matrix - mean) / std
    z_query = (metafeatures.to_vector() - mean) / std
    distances = np.sqrt(((z_matrix - z_query) ** 2).sum(axis=1))
    order = np.argsort(distances, kind="stable")[:n_neighbors]
    neighbors = [
        Neighbor(ids[int(i)], float(distances[i]), float(1.0 / (1.0 + distances[i])))
        for i in order
    ]
    leaderboards = seed_all_leaderboards(kb)
    return weighted_nomination(neighbors, leaderboards, n_algorithms)


# ---------------------------------------------------------------- startup


@contextlib.contextmanager
def _without_snapshot(root: Path):
    """Hide the shard snapshots so opens inside the block replay the logs."""
    moved = []
    for snapshot_path in sorted(root.glob("shard-*.log.snapshot")):
        aside = snapshot_path.with_suffix(".aside")
        snapshot_path.rename(aside)
        moved.append((aside, snapshot_path))
    try:
        yield
    finally:
        for aside, snapshot_path in moved:
            aside.rename(snapshot_path)


def time_startup(root: Path, use_snapshot: bool, repeats: int) -> float:
    """Best-of-N open of a store root, every table fully materialised."""
    with _without_snapshot(root) if not use_snapshot else contextlib.nullcontext():
        best = np.inf
        for _ in range(max(1, repeats)):
            started = time.perf_counter()
            store = ShardedRecordStore(root, snapshot_every=None)
            for table in store.tables():
                store.count(table)
            best = min(best, time.perf_counter() - started)
            store.close()
        return best


def load_state(root: Path) -> tuple[int, dict]:
    """Full deep state of a store (next id + every record of every table)."""
    store = ShardedRecordStore(root, snapshot_every=None)
    state = {table: store.scan(table) for table in store.tables()}
    next_id = store.peek_next_id()
    store.close()
    return next_id, state


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--datasets", type=int, default=10_000, help="stored datasets")
    parser.add_argument("--runs-per-dataset", type=int, default=5)
    parser.add_argument("--queries", type=int, default=15,
                        help="interleaved append+nominate rounds to time")
    parser.add_argument("--seed-queries", type=int, default=None,
                        help="rounds also timed through the seed full-scan "
                             "path (default: all of them)")
    parser.add_argument("--snapshot-every", type=int, default=5000)
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count for the N-shards-vs-one-shard row")
    parser.add_argument("--startup-repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    seed_queries = args.queries if args.seed_queries is None else args.seed_queries

    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory(prefix="bench_kb_scale_") as tmp:
        path = Path(tmp) / "kb"
        kb = KnowledgeBase(path, snapshot_every=args.snapshot_every)

        n_populate = max(args.datasets - args.queries, 0)
        print(f"populating {n_populate} datasets x {args.runs_per_dataset} runs ...")
        started = time.perf_counter()
        for i in range(n_populate):
            kb.add_result_batch(f"ds{i}", random_metafeatures(rng),
                                random_runs(rng, args.runs_per_dataset))
        populate_s = time.perf_counter() - started
        kb.nominate(random_metafeatures(rng))  # build the read caches once

        print(f"interleaved service loop: {args.queries} append+nominate rounds ...")
        fast_s = 0.0
        seed_s = 0.0
        identical = True
        recorded = []  # the sharded replay re-checks against these
        for q in range(args.queries):
            kb.add_result_batch(f"live{q}", random_metafeatures(rng),
                                random_runs(rng, args.runs_per_dataset))
            query = random_metafeatures(rng)

            started = time.perf_counter()
            fast = kb.nominate(query, n_algorithms=3, n_neighbors=3)
            fast_s += time.perf_counter() - started
            recorded.append(fast)

            if q < seed_queries:
                started = time.perf_counter()
                reference = seed_nominate(kb, query)
                seed_s += time.perf_counter() - started
                identical = identical and fast == reference

        n_datasets, n_runs = kb.n_datasets(), kb.n_runs()
        kb.snapshot()
        kb.close()

        print(f"timing startup over {n_datasets + n_runs} log records ...")
        snap_ready_s = time_startup(path, True, args.startup_repeats)
        replay_startup_s = time_startup(path, False, args.startup_repeats)
        snap_state = load_state(path)
        with _without_snapshot(path):
            replay_state = load_state(path)
        startup_identical = snap_state == replay_state

        log_bytes = (path / "shard-000.log").stat().st_size
        snapshot_bytes = (path / "shard-000.log.snapshot").stat().st_size

        # ------------------------------------------- N-shards-vs-one-shard row
        # Replay the identical workload (same rng seed, same batch and query
        # sequence) into an N-shard root.  Insertion order — and hence
        # record ids and every float reduction — matches the one-shard KB,
        # so nominations must be *exactly* equal, not approximately.
        print(f"sharded replay: same workload into {args.shards} shards ...")
        replay_rng = np.random.default_rng(args.seed)
        sharded_root = Path(tmp) / "kb-sharded"
        sharded = KnowledgeBase(sharded_root, shards=args.shards,
                                snapshot_every=args.snapshot_every)
        started = time.perf_counter()
        for i in range(n_populate):
            sharded.add_result_batch(f"ds{i}", random_metafeatures(replay_rng),
                                     random_runs(replay_rng, args.runs_per_dataset))
        sharded_populate_s = time.perf_counter() - started
        sharded.nominate(random_metafeatures(replay_rng))  # warm caches

        sharded_fast_s = 0.0
        sharded_identical = True
        for q in range(args.queries):
            sharded.add_result_batch(
                f"live{q}", random_metafeatures(replay_rng),
                random_runs(replay_rng, args.runs_per_dataset))
            query = random_metafeatures(replay_rng)
            started = time.perf_counter()
            nominations = sharded.nominate(query, n_algorithms=3, n_neighbors=3)
            sharded_fast_s += time.perf_counter() - started
            sharded_identical = sharded_identical and nominations == recorded[q]
        sharded.snapshot()
        sharded.close()

        sharded_startup_s = time_startup(sharded_root, True, args.startup_repeats)
        sharded_log_bytes = sum(
            p.stat().st_size for p in sharded_root.glob("shard-*.log"))
        sharded_snapshot_bytes = sum(
            p.stat().st_size for p in sharded_root.glob("shard-*.log.snapshot"))

    fast_per_query = fast_s / args.queries
    seed_per_query = seed_s / seed_queries if seed_queries else float("nan")
    payload = {
        "benchmark": "kb_scale",
        "workload": "one batched experiment append between consecutive nominations",
        "datasets": n_datasets,
        "runs_per_dataset": args.runs_per_dataset,
        "total_runs": n_runs,
        "queries": args.queries,
        "populate_seconds": round(populate_s, 3),
        "nominate_seed_seconds": round(seed_per_query, 6),
        "nominate_fast_seconds": round(fast_per_query, 6),
        "nominate_speedup": round(seed_per_query / fast_per_query, 1),
        "nominations_identical": identical,
        "startup_replay_seconds": round(replay_startup_s, 6),
        "startup_snapshot_ready_seconds": round(snap_ready_s, 6),
        "startup_ready_speedup": round(replay_startup_s / snap_ready_s, 1),
        "startup_state_identical": startup_identical,
        "log_bytes": log_bytes,
        "snapshot_bytes": snapshot_bytes,
        "shards": args.shards,
        "sharded_populate_seconds": round(sharded_populate_s, 3),
        "sharded_nominate_seconds": round(sharded_fast_s / args.queries, 6),
        "sharded_nominations_identical": sharded_identical,
        "sharded_startup_seconds": round(sharded_startup_s, 6),
        "sharded_log_bytes": sharded_log_bytes,
        "sharded_snapshot_bytes": sharded_snapshot_bytes,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    if not identical:
        raise SystemExit("fast-path nominations diverged from the seed full-scan reference")
    if not startup_identical:
        raise SystemExit("snapshot-restored state diverged from the full log replay")
    if not sharded_identical:
        raise SystemExit("N-shard KB nominations diverged from the one-shard KB's")
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
