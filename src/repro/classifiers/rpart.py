"""rpart — CART decision tree (R package ``rpart``).

Table 3 row: 0 categorical + 4 numerical hyperparameters
(``cp``, ``minsplit``, ``minbucket``, ``maxdepth``).
"""

from __future__ import annotations

from repro.classifiers.single_tree import SingleTreeClassifier
from repro.classifiers.tree import FlatTree, TreeParams, cost_complexity_prune_flat

__all__ = ["RPart"]


class RPart(SingleTreeClassifier):
    """CART: gini splitting with cost-complexity pruning.

    Parameters mirror ``rpart.control``: ``cp`` is the complexity parameter
    (a split must improve the relative error by ``cp`` to be kept),
    ``minsplit`` the minimum node size to attempt a split, ``minbucket``
    the minimum leaf size, ``maxdepth`` the depth cap.
    """

    name = "rpart"

    def __init__(
        self,
        cp: float = 0.01,
        minsplit: int = 20,
        minbucket: int = 7,
        maxdepth: int = 30,
    ):
        self.cp = cp
        self.minsplit = minsplit
        self.minbucket = minbucket
        self.maxdepth = maxdepth
        self.flat_: FlatTree | None = None

    def _tree_params(self) -> TreeParams:
        return TreeParams(
            criterion="gini",
            max_depth=int(self.maxdepth),
            min_split=max(2, int(self.minsplit)),
            min_bucket=max(1, int(self.minbucket)),
        )

    def _prune(self, tree: FlatTree) -> FlatTree:
        return cost_complexity_prune_flat(tree, float(self.cp))
