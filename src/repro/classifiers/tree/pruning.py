"""Tree pruning procedures.

Two classic procedures, matching the R packages SmartML wraps:

* :func:`cost_complexity_prune` — CART/rpart-style weakest-link pruning
  controlled by the complexity parameter ``cp``: a subtree survives only if
  it improves resubstitution error by at least ``cp * R(root)`` per extra
  leaf.
* :func:`pessimistic_prune` — C4.5/J48-style error-based pruning controlled
  by the confidence factor ``CF``: a subtree is replaced by a leaf when the
  leaf's upper-confidence-bound error estimate is no worse than the
  subtree's.

Each has two implementations: the recursive reference over ``TreeNode``
(kept for the reference build path and the tests that pin it) and a flat
``*_prune_flat`` twin that operates directly on
:class:`~repro.classifiers.tree.flat.FlatTree` arrays — the hot path now
that the presorted engine emits flat trees with no ``TreeNode``
intermediate.  Flat pruning visits nodes in reverse pre-order (children
always carry higher indices than their parent), makes the identical
bottom-up collapse decisions, and compacts the arrays by dropping each
collapsed node's pre-order subtree range, so the result is node-for-node
what ``FlatTree.from_node`` of the recursively pruned tree would produce.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.tree.builder import TreeNode
from repro.classifiers.tree.flat import FlatTree

__all__ = [
    "cost_complexity_prune",
    "pessimistic_prune",
    "subtree_error",
    "cost_complexity_prune_flat",
    "pessimistic_prune_flat",
]


def _node_error(node: TreeNode) -> float:
    """Weighted misclassified count if ``node`` were a leaf."""
    return float(node.counts.sum() - node.counts.max())


def subtree_error(node: TreeNode) -> float:
    """Weighted misclassified count of the subtree's leaves."""
    if node.is_leaf:
        return _node_error(node)
    return subtree_error(node.left) + subtree_error(node.right)


def _subtree_leaves(node: TreeNode) -> int:
    if node.is_leaf:
        return 1
    return _subtree_leaves(node.left) + _subtree_leaves(node.right)


def cost_complexity_prune(root: TreeNode, cp: float) -> TreeNode:
    """Prune in place with complexity parameter ``cp``; returns the root.

    Using rpart's scaling: the penalty per extra leaf is ``cp * R(root)``
    where ``R(root)`` is the error of the root as a single leaf.  Collapse
    is decided bottom-up, so a chain of marginal splits is removed as a
    whole.
    """
    if cp <= 0:
        return root
    penalty = cp * max(_node_error(root), 1.0)

    def collapse(node: TreeNode) -> None:
        if node.is_leaf:
            return
        collapse(node.left)
        collapse(node.right)
        improvement = _node_error(node) - subtree_error(node)
        extra_leaves = _subtree_leaves(node) - 1
        if improvement <= penalty * extra_leaves:
            node.make_leaf()

    collapse(root)
    return root


def _ucb_error(errors: float, n: float, z: float, confidence: float) -> float:
    """Upper confidence bound on the error *count* at a node (C4.5 style).

    C4.5's exact special case for error-free nodes is
    ``U_CF(0, N) = 1 - CF^(1/N)`` — crucial for pruning, since the normal
    approximation grossly underestimates the risk of small pure leaves.
    Nodes with observed errors use the Wilson-style normal approximation of
    the binomial upper limit; ``z`` is the (1 - CF) normal quantile.
    """
    if n <= 0:
        return 0.0
    if errors < 1e-9:
        return float(n * (1.0 - confidence ** (1.0 / n)))
    f = errors / n
    z2 = z * z
    upper = (
        f + z2 / (2 * n) + z * np.sqrt(max(f * (1 - f) / n + z2 / (4 * n * n), 0.0))
    ) / (1 + z2 / n)
    return float(min(upper, 1.0) * n)


def pessimistic_prune(root: TreeNode, confidence: float = 0.25) -> TreeNode:
    """C4.5 error-based pruning in place; returns the root.

    ``confidence`` is J48's ``C`` parameter: smaller values make the upper
    bound more pessimistic and so prune more aggressively.
    """
    from scipy.special import ndtri  # the standard normal quantile

    confidence = float(np.clip(confidence, 1e-4, 0.5))
    z = float(ndtri(1.0 - confidence))

    def pessimistic(node: TreeNode) -> float:
        if node.is_leaf:
            return _ucb_error(_node_error(node), node.n, z, confidence)
        subtree = pessimistic(node.left) + pessimistic(node.right)
        as_leaf = _ucb_error(_node_error(node), node.n, z, confidence)
        if as_leaf <= subtree + 0.1:
            node.make_leaf()
            return as_leaf
        return subtree

    pessimistic(root)
    return root


# ---------------------------------------------------------- flat-array twins
def _flat_node_errors(flat: FlatTree) -> np.ndarray:
    """Weighted misclassified count per node if it were a leaf."""
    return flat.counts.sum(axis=1) - flat.counts.max(axis=1)


def _compact_collapsed(flat: FlatTree, collapse: np.ndarray) -> FlatTree:
    """New FlatTree with every collapsed node's subtree removed.

    Pre-order makes each subtree a contiguous index range, so removal is a
    delta-coded coverage sweep plus an index remap — the surviving nodes
    keep their relative pre-order, exactly matching a re-flatten of the
    recursively pruned tree.
    """
    if not collapse.any():
        return flat
    n = flat.n_nodes
    internal = flat.feature >= 0
    size = np.ones(n, dtype=np.intp)
    for i in range(n - 1, -1, -1):
        if internal[i]:
            size[i] = 1 + size[flat.left[i]] + size[flat.right[i]]

    roots = np.flatnonzero(collapse & internal)
    delta = np.zeros(n + 1, dtype=np.intp)
    np.add.at(delta, roots + 1, 1)
    np.add.at(delta, roots + size[roots], -1)
    keep = np.cumsum(delta[:n]) == 0
    remap = np.cumsum(keep) - 1

    kept_internal = internal & keep & ~collapse
    m = int(keep.sum())
    feature = np.full(m, -1, dtype=np.intp)
    threshold = np.zeros(m, dtype=np.float64)
    left = np.full(m, -1, dtype=np.intp)
    right = np.full(m, -1, dtype=np.intp)
    parent = np.full(m, -1, dtype=np.intp)
    idx = np.flatnonzero(kept_internal)
    feature[remap[idx]] = flat.feature[idx]
    threshold[remap[idx]] = flat.threshold[idx]
    left[remap[idx]] = remap[flat.left[idx]]
    right[remap[idx]] = remap[flat.right[idx]]
    parent[remap[flat.left[idx]]] = remap[idx]
    parent[remap[flat.right[idx]]] = remap[idx]
    arrays = {
        "feature": feature,
        "threshold": threshold,
        "left": left,
        "right": right,
        "parent": parent,
    }
    return FlatTree(arrays, flat.counts[keep])


def cost_complexity_prune_flat(flat: FlatTree, cp: float) -> FlatTree:
    """Flat twin of :func:`cost_complexity_prune`; returns a new tree."""
    if cp <= 0:
        return flat
    node_err = _flat_node_errors(flat)
    penalty = cp * max(float(node_err[0]), 1.0)

    n = flat.n_nodes
    internal = flat.feature >= 0
    subtree_err = node_err.copy()
    leaves = np.ones(n, dtype=np.intp)
    collapse = np.zeros(n, dtype=bool)
    for i in range(n - 1, -1, -1):
        if not internal[i]:
            continue
        l, r = flat.left[i], flat.right[i]
        below = subtree_err[l] + subtree_err[r]
        n_leaves = leaves[l] + leaves[r]
        improvement = node_err[i] - below
        if improvement <= penalty * (n_leaves - 1):
            collapse[i] = True
            # A collapsed node acts as a leaf for every ancestor's decision.
        else:
            subtree_err[i] = below
            leaves[i] = n_leaves
    return _compact_collapsed(flat, collapse)


def pessimistic_prune_flat(flat: FlatTree, confidence: float = 0.25) -> FlatTree:
    """Flat twin of :func:`pessimistic_prune`; returns a new tree."""
    from scipy.special import ndtri  # the standard normal quantile

    confidence = float(np.clip(confidence, 1e-4, 0.5))
    z = float(ndtri(1.0 - confidence))

    node_err = _flat_node_errors(flat)
    totals = flat.counts.sum(axis=1)
    n = flat.n_nodes
    internal = flat.feature >= 0
    pess = np.empty(n, dtype=np.float64)
    collapse = np.zeros(n, dtype=bool)
    for i in range(n - 1, -1, -1):
        as_leaf = _ucb_error(float(node_err[i]), float(totals[i]), z, confidence)
        if not internal[i]:
            pess[i] = as_leaf
            continue
        below = pess[flat.left[i]] + pess[flat.right[i]]
        if as_leaf <= below + 0.1:
            collapse[i] = True
            pess[i] = as_leaf
        else:
            pess[i] = below
    return _compact_collapsed(flat, collapse)
