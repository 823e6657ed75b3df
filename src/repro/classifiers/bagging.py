"""Bagging (R package ``ipred``'s ``bagging``).

Table 3 row: 0 categorical + 5 numerical hyperparameters
(``nbagg``, ``minsplit``, ``minbucket``, ``cp``, ``maxdepth`` — the last
four forwarded to the bagged rpart trees, exactly as ``ipred`` forwards
``rpart.control``).
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import Classifier
from repro.classifiers.tree import (
    FlatForest,
    TreeParams,
    cost_complexity_prune_flat,
    fit_flat_forest,
    restore_forest_state,
)
from repro.classifiers.tree.presort import presort_for
from repro.evaluation.resampling import bootstrap_indices

__all__ = ["Bagging"]


class Bagging(Classifier):
    """Bootstrap-aggregated CART trees (all features at every split)."""

    name = "bagging"

    def __init__(
        self,
        nbagg: int = 25,
        minsplit: int = 20,
        minbucket: int = 7,
        cp: float = 0.01,
        maxdepth: int = 30,
        seed: int = 0,
    ):
        self.nbagg = nbagg
        self.minsplit = minsplit
        self.minbucket = minbucket
        self.cp = cp
        self.maxdepth = maxdepth
        self.seed = seed
        self.trees_: FlatForest | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int | None = None):
        X, y = self._start_fit(X, y, n_classes)
        rng = np.random.default_rng(self.seed)
        params = TreeParams(
            criterion="gini",
            max_depth=int(self.maxdepth),
            min_split=max(2, int(self.minsplit)),
            min_bucket=max(1, int(self.minbucket)),
        )
        # One presort + lockstep growth across all bagged trees; pruning
        # stays per tree (it is O(nodes), not a scan), and the pruned
        # members are packed back into one node table.
        presort = presort_for(X)
        samples = [
            bootstrap_indices(y.shape[0], rng)
            for _ in range(max(1, int(self.nbagg)))
        ]
        grown = fit_flat_forest(presort, y, self.n_classes_, params, samples)
        self.trees_ = FlatForest.from_trees(
            [cost_complexity_prune_flat(tree, float(self.cp)) for tree in grown]
        )
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = self._check_predict_ready(X)
        return self.trees_.predict_proba(X)

    def __setstate__(self, state: dict) -> None:
        restore_forest_state(self, state)
