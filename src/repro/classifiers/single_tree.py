"""Shared fit path of the single-tree families (rpart, J48).

A family grows one :class:`~repro.classifiers.tree.FlatTree` with its
:class:`~repro.classifiers.tree.TreeParams` and then prunes it.  Besides
``fit``, it can fit the training sets of several cross-validation folds in
one lockstep grow (:meth:`SingleTreeClassifier.fit_folds`), which
``CrossValObjective.evaluate_folds`` uses for a configuration's first
evaluation.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.classifiers.base import Classifier
from repro.classifiers.tree import (
    FlatTree,
    PresortedMatrix,
    TreeParams,
    fit_flat_forest,
    fit_flat_tree,
)

__all__ = ["SingleTreeClassifier"]


class SingleTreeClassifier(Classifier):
    """One grown-then-pruned classification tree."""

    flat_: FlatTree | None = None

    def _tree_params(self) -> TreeParams:
        raise NotImplementedError

    def _prune(self, tree: FlatTree) -> FlatTree:
        raise NotImplementedError

    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int | None = None):
        X, y = self._start_fit(X, y, n_classes)
        grown = fit_flat_tree(X, y, self.n_classes_, self._tree_params())
        self.flat_ = self._prune(grown)
        return self

    def fit_folds(
        self,
        presort: PresortedMatrix,
        y: np.ndarray,
        rows: list[np.ndarray],
        n_classes: int | None = None,
    ) -> list["SingleTreeClassifier"]:
        """One fitted clone per fold, grown in one lockstep pass.

        ``rows[f]`` holds fold ``f``'s training rows of ``presort.X`` in
        ascending order.  Clone ``f`` equals
        ``self.clone().fit(presort.X[rows[f]], y[rows[f]], n_classes)``
        node for node: each fold is one member of a
        :func:`~repro.classifiers.tree.fit_flat_forest` grow whose draws
        are its rows once each, and a forest member with unit draws is
        the tree grown on its rows (the multiplicity invariant).  Raises
        ``ValueError`` when the folds disagree on the class count, which
        a lockstep grow shares.
        """
        y = np.asarray(y, dtype=np.int64)
        models = []
        for fold_rows in rows:
            model = copy.copy(self)  # unfitted params; fit state set below
            model._start_fit(presort.X[fold_rows], y[fold_rows], n_classes)
            models.append(model)
        widths = {model.n_classes_ for model in models}
        if len(widths) != 1:
            raise ValueError("folds disagree on the class count")
        forest = fit_flat_forest(
            presort, y, widths.pop(), self._tree_params(), samples=rows
        )
        for model, grown in zip(models, forest):
            model.flat_ = model._prune(grown)
        return models

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = self._check_predict_ready(X)
        return self.flat_.predict_proba(X)
