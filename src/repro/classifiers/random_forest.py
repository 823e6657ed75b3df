"""RandomForest (R package ``randomForest``).

Table 3 row: 0 categorical + 3 numerical hyperparameters
(``ntree``, ``mtry``, ``nodesize``).
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import Classifier
from repro.classifiers.tree import (
    FlatForest,
    TreeParams,
    draw_tree_seed,
    fit_flat_forest,
    restore_forest_state,
)
from repro.classifiers.tree.presort import presort_for
from repro.evaluation.resampling import bootstrap_indices

__all__ = ["RandomForest"]


class RandomForest(Classifier):
    """Bootstrap ensemble of gini trees with per-node feature subsampling.

    Parameters
    ----------
    ntree:
        Number of trees.
    mtry:
        Features considered per split; ``0`` means the ``randomForest``
        default ``floor(sqrt(d))``.
    nodesize:
        Minimum leaf size (1 reproduces the R default for classification).
    """

    name = "random_forest"

    def __init__(self, ntree: int = 100, mtry: int = 0, nodesize: int = 1, seed: int = 0):
        self.ntree = ntree
        self.mtry = mtry
        self.nodesize = nodesize
        self.seed = seed
        self.trees_: FlatForest | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int | None = None):
        X, y = self._start_fit(X, y, n_classes)
        rng = np.random.default_rng(self.seed)
        d = X.shape[1]
        mtry = int(self.mtry) if self.mtry else max(1, int(np.sqrt(d)))
        mtry = min(max(1, mtry), d)
        params = TreeParams(
            criterion="gini",
            max_depth=40,
            min_split=max(2, 2 * int(self.nodesize)),
            min_bucket=max(1, int(self.nodesize)),
            max_features=mtry,
        )
        # One presort serves the whole forest (shared across HPO candidates
        # when the objective registered X); every bootstrap order derives
        # from it by stable partition, and all trees grow in lockstep so
        # each level's vectorized pass serves the entire ensemble; the
        # members stay packed in one node table for one-pass prediction.
        # Draws stay in the sequential reference order: sample, tree seed,
        # sample, tree seed, ...
        presort = presort_for(X)
        subsampling = mtry < d
        samples, seeds = [], []
        for _ in range(max(1, int(self.ntree))):
            samples.append(bootstrap_indices(y.shape[0], rng))
            if subsampling:
                seeds.append(draw_tree_seed(rng))
        self.trees_ = fit_flat_forest(
            presort, y, self.n_classes_, params, samples,
            tree_seeds=seeds if subsampling else None,
        )
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = self._check_predict_ready(X)
        return self.trees_.predict_proba(X)

    def __setstate__(self, state: dict) -> None:
        restore_forest_state(self, state)
