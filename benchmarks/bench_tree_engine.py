"""Predict-throughput micro-benchmark for the flat tree engine.

Builds one bootstrap forest, then times ``predict_proba`` over a large batch
through (a) the recursive per-row reference walkers, (b) the flat
vectorized engine looping over per-tree ``FlatTree`` objects, and (c) the
packed ``FlatForest`` that routes the (tree, row) pairs of many trees in
each level pass, asserting all three outputs are bit-identical.  Small batches (1 and 64
rows: a lone serving request, a CV fold) are timed again for the flat and
packed paths, where the per-tree loop's fixed per-level cost dominates.
Writes ``BENCH_tree_engine.json`` at the repo root so future PRs have a
perf trajectory to compare against.

Run: ``PYTHONPATH=src python benchmarks/bench_tree_engine.py``
(``--rows/--trees/--repeats`` shrink it for CI smoke runs).
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.classifiers.tree import (
    FlatForest,
    FlatTree,
    TreeParams,
    build_tree,
    tree_predict_proba,
)
from repro.evaluation.resampling import bootstrap_indices

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_tree_engine.json"


def build_forest(n_train: int, n_features: int, n_classes: int, n_trees: int, seed: int):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_train, n_features))
    y = rng.integers(0, n_classes, size=n_train)
    params = TreeParams(
        criterion="gini", max_depth=40, min_split=2, min_bucket=1,
        max_features=max(1, int(np.sqrt(n_features))),
    )
    roots = []
    for _ in range(n_trees):
        sample = bootstrap_indices(n_train, rng)
        roots.append(build_tree(X[sample], y[sample], n_classes, params, rng=rng))
    return roots


def forest_proba_recursive(roots, X, n_classes):
    total = np.zeros((X.shape[0], n_classes))
    for root in roots:
        total += tree_predict_proba(root, X, n_classes)
    return total / len(roots)


def forest_proba_flat(flats, X):
    total = np.zeros((X.shape[0], flats[0].n_classes))
    for flat in flats:
        total += flat.predict_proba(X)
    return total / len(flats)


#: Batch sizes timed separately: one serving request, one CV test fold.
SMALL_BATCHES = (1, 64)


def best_seconds(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def bench_small_batches(flats, packed, X, repeats: int) -> list[dict]:
    out = []
    for rows in SMALL_BATCHES:
        batch = X[:rows]
        flat_s = best_seconds(lambda: forest_proba_flat(flats, batch), 10 * repeats)
        packed_s = best_seconds(lambda: packed.predict_proba(batch), 10 * repeats)
        out.append({
            "rows": rows,
            "flat_ms": round(flat_s * 1e3, 4),
            "packed_ms": round(packed_s * 1e3, 4),
            "speedup": round(flat_s / packed_s, 2),
            "identical": bool(np.array_equal(
                forest_proba_flat(flats, batch), packed.predict_proba(batch)
            )),
        })
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=10_000, help="prediction batch size")
    parser.add_argument("--trees", type=int, default=100, help="forest size")
    parser.add_argument("--features", type=int, default=20)
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--train-rows", type=int, default=1_000)
    parser.add_argument("--repeats", type=int, default=3,
                        help="flat- and packed-path timing repeats")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"building {args.trees}-tree forest on {args.train_rows} rows ...")
    roots = build_forest(args.train_rows, args.features, args.classes, args.trees, args.seed)
    flats = [FlatTree.from_node(root, args.classes) for root in roots]
    packed = FlatForest.from_trees(flats)

    rng = np.random.default_rng(args.seed + 1)
    X = rng.normal(size=(args.rows, args.features))

    print(f"timing recursive per-row traversal over {args.rows} rows ...")
    started = time.perf_counter()
    recursive = forest_proba_recursive(roots, X, args.classes)
    recursive_s = time.perf_counter() - started

    print(f"timing flat vectorized traversal ({args.repeats} repeats, best kept) ...")
    flat_s = best_seconds(lambda: forest_proba_flat(flats, X), args.repeats)
    flat = forest_proba_flat(flats, X)

    print(f"timing packed one-traversal forest ({args.repeats} repeats, best kept) ...")
    packed_s = best_seconds(lambda: packed.predict_proba(X), args.repeats)
    packed_proba = packed.predict_proba(X)

    print(f"timing small batches {SMALL_BATCHES} ...")
    small = bench_small_batches(flats, packed, X, args.repeats)

    identical = bool(np.array_equal(recursive, flat))
    packed_identical = bool(np.array_equal(flat, packed_proba)) and all(
        entry["identical"] for entry in small
    )
    speedup = recursive_s / flat_s if flat_s > 0 else float("inf")
    payload = {
        "benchmark": "forest_predict_proba",
        "rows": args.rows,
        "trees": args.trees,
        "features": args.features,
        "classes": args.classes,
        "recursive_seconds": round(recursive_s, 6),
        "flat_seconds": round(flat_s, 6),
        "speedup": round(speedup, 2),
        "rows_per_second_flat": round(args.rows / flat_s, 1),
        "predictions_identical": identical,
        "packed_seconds": round(packed_s, 6),
        "packed_speedup": round(flat_s / packed_s, 2),
        "rows_per_second_packed": round(args.rows / packed_s, 1),
        "packed_identical": packed_identical,
        "small_batches": small,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    if not identical:
        raise SystemExit("flat predictions diverged from the recursive reference")
    if not packed_identical:
        raise SystemExit("packed forest predictions diverged from the per-tree loop")
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
