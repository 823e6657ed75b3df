"""Shared decision-tree engine for the tree-family classifiers.

Hot path: :mod:`~repro.classifiers.tree.presort` (presorted breadth-first
fitting straight into flat arrays) + :mod:`~repro.classifiers.tree.flat`
(vectorized prediction; ``FlatForest`` packs an ensemble into one node
table) + the ``*_prune_flat`` procedures.  Reference path:
the recursive ``build_tree`` / ``TreeNode`` walkers / recursive pruning,
kept node-for-node identical and exercised by the test suite.
"""

from repro.classifiers.tree.builder import (
    TreeNode,
    TreeParams,
    build_tree,
    count_leaves,
    iter_nodes,
    tree_apply,
    tree_depth,
    tree_predict_proba,
)
from repro.classifiers.tree.flat import (
    FlatForest,
    FlatRegressionTree,
    FlatTree,
    flatten_structure,
    restore_forest_state,
)
from repro.classifiers.tree.presort import (
    FeatureSampler,
    PresortedMatrix,
    draw_tree_seed,
    fit_flat_forest,
    fit_flat_regression_forest,
    fit_flat_regression_tree,
    fit_flat_tree,
    presort_for,
    share_presort,
    shared_presort_for,
)
from repro.classifiers.tree.criteria import (
    children_impurity,
    entropy,
    gain_ratio,
    gini,
    impurity_function,
)
from repro.classifiers.tree.pruning import (
    cost_complexity_prune,
    cost_complexity_prune_flat,
    pessimistic_prune,
    pessimistic_prune_flat,
    subtree_error,
)

__all__ = [
    "FlatTree",
    "FlatForest",
    "FlatRegressionTree",
    "flatten_structure",
    "restore_forest_state",
    "TreeNode",
    "TreeParams",
    "build_tree",
    "tree_apply",
    "tree_predict_proba",
    "count_leaves",
    "tree_depth",
    "iter_nodes",
    "PresortedMatrix",
    "FeatureSampler",
    "fit_flat_tree",
    "fit_flat_forest",
    "fit_flat_regression_tree",
    "fit_flat_regression_forest",
    "presort_for",
    "share_presort",
    "shared_presort_for",
    "draw_tree_seed",
    "gini",
    "entropy",
    "gain_ratio",
    "children_impurity",
    "impurity_function",
    "cost_complexity_prune",
    "cost_complexity_prune_flat",
    "pessimistic_prune",
    "pessimistic_prune_flat",
    "subtree_error",
]
