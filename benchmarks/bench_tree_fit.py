"""Fit-throughput benchmark for the presorted breadth-first tree engine.

Two workloads, both asserted node-for-node identical to the seed recursive
builder before any number is reported:

* **forest fit** — a bootstrap forest with per-node feature subsampling
  (the RandomForest fitting path): the seed grows each tree recursively,
  re-argsorting candidate columns at every node; the engine presorts the
  training matrix once, derives every bootstrap order by stable partition,
  and grows all trees in lockstep.
* **candidate loop** — a SMAC-style intensification loop: a pool of
  tree-family configurations (CART/gini with cost-complexity pruning,
  C4.5/gain-ratio with pessimistic pruning, and small random forests;
  ``--configs 10`` adds a ``nodesize`` 5 forest so the draw-count stopping
  rule is asserted too) each fitted on every CV fold's training split.
  The engine path registers one presort per fold, exactly as
  ``CrossValObjective`` does, so every candidate and every ensemble
  member reuses it.

Writes ``BENCH_tree_fit.json`` at the repo root so future PRs have a perf
trajectory to compare against.

Run: ``PYTHONPATH=src python benchmarks/bench_tree_fit.py``
(``--trees/--rows/--configs`` shrink it for CI smoke runs).
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.classifiers.tree import (
    FlatTree,
    PresortedMatrix,
    TreeParams,
    build_tree,
    cost_complexity_prune,
    cost_complexity_prune_flat,
    draw_tree_seed,
    fit_flat_forest,
    fit_flat_tree,
    pessimistic_prune,
    pessimistic_prune_flat,
)
from repro.data import SyntheticSpec, make_dataset
from repro.evaluation.resampling import bootstrap_indices, stratified_kfold_indices

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_tree_fit.json"


def assert_trees_identical(a: FlatTree, b: FlatTree, context: str) -> None:
    for name in ("feature", "threshold", "left", "right", "parent"):
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            raise SystemExit(f"{context}: engine tree diverged from seed ({name})")
    if not np.array_equal(a.counts, b.counts):
        raise SystemExit(f"{context}: engine tree diverged from seed (counts)")


# ------------------------------------------------------------- forest fit
def bench_forest(rows: int, features: int, classes: int, trees: int, seed: int,
                 repeats: int):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, features))
    y = rng.integers(0, classes, size=rows)
    params = TreeParams(
        criterion="gini", max_depth=40, min_split=2, min_bucket=1,
        max_features=max(1, int(np.sqrt(features))),
    )

    seed_s = np.inf
    for _ in range(max(1, repeats)):
        seed_rng = np.random.default_rng(seed + 1)
        started = time.perf_counter()
        reference = []
        for _ in range(trees):
            sample = bootstrap_indices(rows, seed_rng)
            root = build_tree(X[sample], y[sample], classes, params, rng=seed_rng)
            reference.append(FlatTree.from_node(root, classes))
        seed_s = min(seed_s, time.perf_counter() - started)

    engine_s = np.inf
    for _ in range(max(1, repeats)):
        engine_rng = np.random.default_rng(seed + 1)
        started = time.perf_counter()
        presort = PresortedMatrix(X)
        samples, tree_seeds = [], []
        for _ in range(trees):
            samples.append(bootstrap_indices(rows, engine_rng))
            tree_seeds.append(draw_tree_seed(engine_rng))
        engine = fit_flat_forest(
            presort, y, classes, params, samples, tree_seeds=tree_seeds
        )
        engine_s = min(engine_s, time.perf_counter() - started)

    for i, (a, b) in enumerate(zip(reference, engine)):
        assert_trees_identical(a, b, f"forest tree {i}")
    return {
        "rows": rows, "features": features, "classes": classes, "trees": trees,
        "repeats": repeats,
        "seed_seconds": round(seed_s, 4),
        "engine_seconds": round(engine_s, 4),
        "speedup": round(seed_s / engine_s, 2),
        "trees_identical": True,
    }


# --------------------------------------------------------- candidate loop
def _candidate_pool(features: int, n_configs: int, forest_trees: int):
    """(kind, params, extra) candidates: CART + C4.5 singles, small forests."""
    pool = []
    for cp, minsplit, maxdepth in [
        (0.001, 2, 30), (0.01, 20, 30), (0.05, 10, 12), (0.0001, 5, 20),
    ]:
        params = TreeParams(criterion="gini", max_depth=maxdepth,
                            min_split=minsplit, min_bucket=max(1, minsplit // 3))
        pool.append(("cart", params, cp))
    for confidence, m in [(0.25, 2), (0.05, 5), (0.45, 2)]:
        params = TreeParams(criterion="gain_ratio", max_depth=40,
                            min_split=max(2, 2 * m), min_bucket=m)
        pool.append(("c45", params, confidence))
    # The tenth candidate (a nodesize-5 forest, which exercises the
    # draw-count stopping rule) lies beyond the default --configs 9, so the
    # full run keeps its nine-candidate workload and the CI smoke selects it.
    for mtry_frac, nodesize in ((0.3, 1), (0.6, 1), (0.6, 5)):
        params = TreeParams(criterion="gini", max_depth=40,
                            min_split=max(2, 2 * nodesize), min_bucket=nodesize,
                            max_features=max(1, int(features * mtry_frac)))
        pool.append(("forest", params, forest_trees))
    return pool[: max(1, n_configs)]


def bench_candidate_loop(
    rows: int, features: int, classes: int, n_configs: int,
    n_folds: int, forest_trees: int, seed: int, repeats: int,
):
    ds = make_dataset(SyntheticSpec(
        name="bench", n_instances=rows, n_features=features,
        n_classes=classes, class_sep=1.0, seed=seed,
    ))
    X, y = ds.X, ds.y
    folds = stratified_kfold_indices(y, n_folds, seed=seed)
    fold_train = [(X[tr], y[tr]) for tr, _ in folds]
    pool = _candidate_pool(features, n_configs, forest_trees)

    def run(engine: bool):
        fitted = []
        for Xf, yf in fold_train:
            presort = PresortedMatrix(Xf) if engine else None
            for kind, params, extra in pool:
                rng = np.random.default_rng(seed + 17)
                if kind == "forest":
                    if engine:
                        samples, tree_seeds = [], []
                        for _ in range(extra):
                            samples.append(bootstrap_indices(yf.shape[0], rng))
                            tree_seeds.append(draw_tree_seed(rng))
                        fitted.extend(fit_flat_forest(
                            presort, yf, classes, params, samples,
                            tree_seeds=tree_seeds,
                        ))
                    else:
                        for _ in range(extra):
                            sample = bootstrap_indices(yf.shape[0], rng)
                            root = build_tree(Xf[sample], yf[sample], classes,
                                              params, rng=rng)
                            fitted.append(FlatTree.from_node(root, classes))
                elif engine:
                    grown = fit_flat_tree(Xf, yf, classes, params, presort=presort)
                    if kind == "cart":
                        fitted.append(cost_complexity_prune_flat(grown, extra))
                    else:
                        fitted.append(pessimistic_prune_flat(grown, extra))
                else:
                    root = build_tree(Xf, yf, classes, params)
                    if kind == "cart":
                        cost_complexity_prune(root, extra)
                    else:
                        pessimistic_prune(root, extra)
                    fitted.append(FlatTree.from_node(root, classes))
        return fitted

    seed_s = np.inf
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        reference = run(engine=False)
        seed_s = min(seed_s, time.perf_counter() - started)
    engine_s = np.inf
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        engine = run(engine=True)
        engine_s = min(engine_s, time.perf_counter() - started)

    for i, (a, b) in enumerate(zip(reference, engine)):
        assert_trees_identical(a, b, f"candidate-loop fit {i}")
    return {
        "rows": rows, "features": features, "classes": classes,
        "configs": len(pool), "folds": n_folds, "forest_trees": forest_trees,
        "fits": len(reference), "repeats": repeats,
        "seed_seconds": round(seed_s, 4),
        "engine_seconds": round(engine_s, 4),
        "speedup": round(seed_s / engine_s, 2),
        "trees_identical": True,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=1200)
    parser.add_argument("--features", type=int, default=8)
    parser.add_argument("--classes", type=int, default=3)
    parser.add_argument("--trees", type=int, default=250, help="forest size")
    parser.add_argument("--configs", type=int, default=9, help="candidate pool size")
    parser.add_argument("--folds", type=int, default=3)
    parser.add_argument("--forest-trees", type=int, default=50,
                        help="trees per forest candidate in the loop")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timing repeats per path (best kept)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"forest fit: {args.trees} trees on {args.rows}x{args.features} ...")
    forest = bench_forest(
        args.rows, args.features, args.classes, args.trees, args.seed, args.repeats
    )
    print(json.dumps(forest, indent=2))

    print(f"candidate loop: {args.configs} configs x {args.folds} folds ...")
    loop = bench_candidate_loop(
        args.rows, args.features, args.classes, args.configs,
        args.folds, args.forest_trees, args.seed, args.repeats,
    )
    print(json.dumps(loop, indent=2))

    payload = {
        "benchmark": "tree_fit_presorted_engine",
        "forest_fit": forest,
        "candidate_loop": loop,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
