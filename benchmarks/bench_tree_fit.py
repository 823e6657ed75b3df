"""Fit-throughput benchmark for the presorted breadth-first tree engine.

Three workloads, all asserted node-for-node identical to the seed recursive
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
* **mtry sweep** — forests at 250 x 24 and 1200 x 20 (rows scale with
  ``--rows``; 6/5 of ``--forest-trees`` trees, 60 by default) with
  ``max_features`` in {1, floor(sqrt(d)), d / 2, d / 2 + 1, d - 1}.  Each
  point is fitted on both frontiers (the engine grows every subsampled
  forest on its rank frontier; the sweep forces each in turn) and both are
  asserted identical to the recursive builder, so the sweep is the evidence
  for the frontier choice and checks identity on both.

Writes ``BENCH_tree_fit.json`` at the repo root so future PRs have a perf
trajectory to compare against, stamped with the core count, BLAS and the
thread environment.

Run: ``PYTHONPATH=src python benchmarks/bench_tree_fit.py``
(``--trees/--rows/--configs/--forest-trees`` shrink it for CI smoke runs).
"""

from __future__ import annotations

import argparse
import json
import math
import os
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
from repro.classifiers.tree import presort as presort_mod
from repro.data import SyntheticSpec, make_dataset
from repro.evaluation.resampling import bootstrap_indices, stratified_kfold_indices

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_tree_fit.json"

#: BLAS/OpenMP thread variables recorded with every run.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: (rows as a share of ``--rows``, features) of the mtry sweep's datasets:
#: 250 x 24 and 1200 x 20 at the default ``--rows 1200``.
SWEEP_SHAPES = ((250 / 1200, 24), (1.0, 20))


def environment() -> dict:
    """Core count, versions, BLAS and thread settings of this run."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {key: os.environ.get(key) for key in THREAD_ENV},
    }


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


# -------------------------------------------------------------- mtry sweep
def _sweep_mtry(features: int) -> list[int]:
    half = features // 2
    picks = (1, math.isqrt(features), half, half + 1, features - 1)
    return sorted({min(max(1, m), features - 1) for m in picks})


def _fit_on_frontier(
    frontier: str, presort, y, classes, params, samples, tree_seeds
) -> tuple[float, list]:
    """Time one forest fit forced onto ``frontier`` ("partition"/"rank")."""
    saved = presort_mod._RANK_FRONTIER_SHARE
    presort_mod._RANK_FRONTIER_SHARE = 1.0 if frontier == "rank" else 0.0
    try:
        started = time.perf_counter()
        forest = fit_flat_forest(
            presort, y, classes, params, samples, tree_seeds=tree_seeds
        )
        return time.perf_counter() - started, list(forest)
    finally:
        presort_mod._RANK_FRONTIER_SHARE = saved


def bench_mtry_sweep(rows: int, classes: int, trees: int, seed: int, repeats: int):
    cut_share = presort_mod._RANK_FRONTIER_SHARE
    points = []
    for row_share, features in SWEEP_SHAPES:
        n = max(20, round(rows * row_share))
        rng = np.random.default_rng(seed + features)
        X = rng.normal(size=(n, features))
        y = rng.integers(0, classes, size=n)
        presort = PresortedMatrix(X)
        for mtry in _sweep_mtry(features):
            params = TreeParams(criterion="gini", max_depth=40, min_split=2,
                                min_bucket=1, max_features=mtry)
            draw_rng = np.random.default_rng(seed + mtry)
            samples, tree_seeds = [], []
            for _ in range(trees):
                samples.append(bootstrap_indices(n, draw_rng))
                tree_seeds.append(draw_tree_seed(draw_rng))

            started = time.perf_counter()
            reference = [
                FlatTree.from_node(build_tree(
                    X[sample], y[sample], classes, params, rng=_Replay(tree_seed)
                ), classes)
                for sample, tree_seed in zip(samples, tree_seeds)
            ]
            seed_s = time.perf_counter() - started

            point = {
                "rows": n, "features": features, "mtry": mtry, "trees": trees,
                "frontier": "rank" if mtry <= cut_share * features else "partition",
                "seed_seconds": round(seed_s, 4),
            }
            for frontier in ("partition", "rank"):
                best = np.inf
                for _ in range(max(1, repeats)):
                    took, forest = _fit_on_frontier(
                        frontier, presort, y, classes, params, samples, tree_seeds
                    )
                    best = min(best, took)
                for i, (a, b) in enumerate(zip(reference, forest)):
                    assert_trees_identical(
                        a, b, f"mtry sweep {n}x{features} mtry={mtry} {frontier} tree {i}"
                    )
                point[f"{frontier}_seconds"] = round(best, 4)
            point["rank_speedup"] = round(
                point["partition_seconds"] / point["rank_seconds"], 2
            )
            point["trees_identical"] = True
            points.append(point)
    return {"cut_share": cut_share, "repeats": repeats, "points": points}


class _Replay:
    """The rng of one reference tree: replays its drawn tree seed."""

    def __init__(self, value: int):
        self.value = value

    def integers(self, low, high):
        return self.value


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
                        help="trees per forest candidate in the loop "
                             "(the mtry sweep grows 6/5 of this)")
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

    sweep_trees = max(2, round(args.forest_trees * 6 / 5))
    print(f"mtry sweep: {sweep_trees} trees per forest, both frontiers ...")
    sweep = bench_mtry_sweep(
        args.rows, args.classes, sweep_trees, args.seed, args.repeats
    )
    for point in sweep["points"]:
        print(json.dumps(point))

    payload = {
        "benchmark": "tree_fit_presorted_engine",
        "forest_fit": forest,
        "candidate_loop": loop,
        "mtry_sweep": sweep,
        "env": environment(),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUTPUT}")


if __name__ == "__main__":
    main()
