"""Flat contiguous-array tree representation with vectorized traversal.

The recursive :class:`~repro.classifiers.tree.builder.TreeNode` structure is
ideal for induction and pruning (both are naturally recursive and touch
every node once), but prediction over it walks the tree one Python row at a
time.  This module freezes a fitted (and pruned) tree into five parallel
NumPy arrays — ``feature``, ``threshold``, ``left``, ``right`` and a payload
(class-count matrix or regression value vector) — laid out in pre-order, and
routes whole batches with level-synchronous index propagation: every still-
internal row advances one level per iteration, so the Python-level work is
O(depth) regardless of batch size.

Predictions are bit-for-bit identical to the recursive reference path
(`tree_predict_proba`/`tree_apply`): the per-leaf probability is precomputed
with exactly the same smoothing arithmetic, and traversal applies exactly
the same ``x[feature] <= threshold`` routing.

:class:`FlatForest` packs a whole ensemble into one node table (each tree
a contiguous pre-order block, child links global) and routes every
(tree, row) pair together, so predicting a forest costs O(max depth)
numpy passes instead of O(trees x depth).  See DESIGN.md.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FlatTree",
    "FlatForest",
    "FlatRegressionTree",
    "flatten_structure",
    "restore_forest_state",
    "slice_tree",
]


def flatten_structure(root) -> tuple[dict[str, np.ndarray], list]:
    """Pre-order flatten of any binary node structure.

    ``root`` needs ``feature``, ``threshold``, ``left``, ``right`` and an
    ``is_leaf`` property (leaves have ``feature == -1``).  Returns the
    structural arrays plus the nodes in pre-order, so callers can extract
    their own payload column.  Pre-order means node 0 is the root and every
    left subtree precedes its sibling, which keeps leaf enumeration order
    identical to a left-first depth-first walk.
    """
    nodes: list = []
    index: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        index[id(node)] = len(nodes)
        nodes.append(node)
        if not node.is_leaf:
            stack.append(node.right)
            stack.append(node.left)

    n = len(nodes)
    feature = np.full(n, -1, dtype=np.intp)
    threshold = np.zeros(n, dtype=np.float64)
    left = np.full(n, -1, dtype=np.intp)
    right = np.full(n, -1, dtype=np.intp)
    parent = np.full(n, -1, dtype=np.intp)
    for i, node in enumerate(nodes):
        if not node.is_leaf:
            feature[i] = node.feature
            threshold[i] = node.threshold
            li, ri = index[id(node.left)], index[id(node.right)]
            left[i] = li
            right[i] = ri
            parent[li] = i
            parent[ri] = i
    arrays = {
        "feature": feature,
        "threshold": threshold,
        "left": left,
        "right": right,
        "parent": parent,
    }
    return arrays, nodes


def _leaf_proba(counts: np.ndarray) -> np.ndarray:
    """Exactly the reference smoothing: ``(counts + 1e-9) / row-sum``."""
    smoothed = counts + 1e-9
    return smoothed / smoothed.sum(axis=1, keepdims=True)


def _shift_links(links: np.ndarray, offset: int) -> np.ndarray:
    """Node links moved by ``offset``; ``-1`` (no node) stays ``-1``."""
    return np.where(links >= 0, links + offset, -1)


def slice_tree(
    arrays: dict[str, np.ndarray], lo: int, hi: int
) -> dict[str, np.ndarray]:
    """Standalone structural arrays of the pre-order block ``[lo, hi)`` of a
    packed node table whose ``left``/``right`` links are global."""
    left = _shift_links(arrays["left"][lo:hi], -lo)
    right = _shift_links(arrays["right"][lo:hi], -lo)
    parent = np.full(hi - lo, -1, dtype=np.intp)
    internal = np.flatnonzero(left >= 0)
    parent[left[internal]] = internal
    parent[right[internal]] = internal
    return {
        "feature": arrays["feature"][lo:hi].copy(),
        "threshold": arrays["threshold"][lo:hi].copy(),
        "left": left,
        "right": right,
        "parent": parent,
    }


#: Root of a standalone tree, as a one-element roots array for ``_route``.
_ROOT = np.zeros(1, dtype=np.intp)


def _route(
    feature: np.ndarray,
    threshold: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    roots: np.ndarray,
    X: np.ndarray,
) -> np.ndarray:
    """(roots, rows) node index of the leaf each (root, row) pair reaches.

    Level-synchronous: every still-internal pair advances one level per
    pass, so a node table holding one tree (``roots == [0]``) or a packed
    forest (one root per member) costs O(max depth) numpy passes.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)
    n_rows, d = X.shape
    flat_x = X.ravel()
    idx = np.repeat(roots, n_rows)
    # Offset of each pair's row in ``flat_x``; the column is added per level.
    row_base = np.tile(np.arange(n_rows, dtype=np.intp) * d, len(roots))
    active = np.flatnonzero(feature[idx] >= 0)
    while active.size:
        sub = idx[active]
        go_left = flat_x[row_base[active] + feature[sub]] <= threshold[sub]
        nxt = np.where(go_left, left[sub], right[sub])
        idx[active] = nxt
        active = active[feature[nxt] >= 0]
    return idx.reshape(len(roots), n_rows)


class _FlatBase:
    """Structural arrays + the vectorized traversal shared by both payloads."""

    __slots__ = ("feature", "threshold", "left", "right", "parent", "n_nodes")

    def __init__(self, arrays: dict[str, np.ndarray]):
        self.feature = arrays["feature"]
        self.threshold = arrays["threshold"]
        self.left = arrays["left"]
        self.right = arrays["right"]
        self.parent = arrays["parent"]
        self.n_nodes = int(self.feature.shape[0])

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Node index of the leaf reached by each row (level-synchronous)."""
        return _route(
            self.feature, self.threshold, self.left, self.right, _ROOT, X
        )[0]

    def path_conditions(self, node: int) -> list[tuple[int, bool, float]]:
        """Root-to-``node`` path as ``(feature, went_left, threshold)`` tests."""
        conditions: list[tuple[int, bool, float]] = []
        child = int(node)
        p = int(self.parent[child])
        while p >= 0:
            went_left = int(self.left[p]) == child
            conditions.append((int(self.feature[p]), went_left, float(self.threshold[p])))
            child, p = p, int(self.parent[p])
        conditions.reverse()
        return conditions


class FlatTree(_FlatBase):
    """Flat classification tree: class-count payload + precomputed probas."""

    __slots__ = ("counts", "proba", "n_classes")

    def __init__(self, arrays: dict[str, np.ndarray], counts: np.ndarray):
        super().__init__(arrays)
        self.counts = counts
        self.n_classes = int(counts.shape[1])
        self.proba = _leaf_proba(counts)

    @classmethod
    def from_node(cls, root, n_classes: int) -> "FlatTree":
        """Freeze a fitted (and already pruned) ``TreeNode`` tree."""
        arrays, nodes = flatten_structure(root)
        counts = np.zeros((len(nodes), n_classes), dtype=np.float64)
        for i, node in enumerate(nodes):
            counts[i] = node.counts
        return cls(arrays, counts)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Leaf class-frequency estimates; matches ``tree_predict_proba``."""
        return self.proba[self.apply(X)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_proba(X), axis=1)


class FlatRegressionTree(_FlatBase):
    """Flat regression tree: scalar leaf-value payload."""

    __slots__ = ("values",)

    def __init__(self, arrays: dict[str, np.ndarray], values: np.ndarray):
        super().__init__(arrays)
        self.values = values

    @classmethod
    def from_node(cls, root) -> "FlatRegressionTree":
        """Freeze a node structure carrying a scalar ``value`` per node."""
        arrays, nodes = flatten_structure(root)
        values = np.array([node.value for node in nodes], dtype=np.float64)
        return cls(arrays, values)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.values[self.apply(X)]


#: Upper bound on the (tree, row) pairs one packed traversal routes at
#: once.  A small batch routes through every tree in one block; a large one
#: through a run of trees at a time (cut into row blocks past this many
#: rows), so each level pass reads the nodes of few trees and the per-pair
#: workspace stays a few MB.  2**16 was the fastest block in a sweep of
#: 2**12-2**20 at 2k and 10k rows x 100 trees (docs/benchmarks.md).
_FOREST_PAIRS = 1 << 16


class FlatForest:
    """Classification trees packed into one node table.

    Tree ``t`` occupies the contiguous pre-order block
    ``[offsets[t], offsets[t + 1])``, its root at ``offsets[t]``;
    ``left``/``right`` are *global* node indices, so one level-synchronous
    pass advances every (tree, row) pair at once.  This is the stored form
    of a fitted forest — the per-tree :class:`FlatTree` objects are views
    rebuilt on access (``forest[t]``, iteration), not kept beside it.
    """

    __slots__ = (
        "feature", "threshold", "left", "right", "counts", "proba", "offsets",
        "n_classes",
    )

    def __init__(
        self, arrays: dict[str, np.ndarray], counts: np.ndarray, offsets: np.ndarray
    ):
        self.feature = arrays["feature"]
        self.threshold = arrays["threshold"]
        self.left = arrays["left"]
        self.right = arrays["right"]
        self.counts = counts
        self.proba = _leaf_proba(counts)
        self.offsets = np.asarray(offsets, dtype=np.intp)
        self.n_classes = int(counts.shape[1])

    @classmethod
    def from_trees(cls, trees) -> "FlatForest":
        """Pack pre-order :class:`FlatTree` members (e.g. pruned ones)."""
        sizes = np.array([tree.n_nodes for tree in trees], dtype=np.intp)
        offsets = np.concatenate(([0], np.cumsum(sizes))).astype(np.intp)
        arrays = {
            name: np.concatenate([getattr(tree, name) for tree in trees])
            for name in ("feature", "threshold")
        }
        for name in ("left", "right"):
            arrays[name] = np.concatenate([
                _shift_links(getattr(tree, name), off)
                for tree, off in zip(trees, offsets)
            ])
        counts = np.concatenate([tree.counts for tree in trees], axis=0)
        return cls(arrays, counts, offsets)

    def __len__(self) -> int:
        return int(self.offsets.shape[0]) - 1

    def __getitem__(self, t: int) -> FlatTree:
        """Member ``t`` as a standalone pre-order :class:`FlatTree`."""
        if not -len(self) <= t < len(self):
            raise IndexError(f"forest has {len(self)} trees, no tree {t}")
        t %= len(self)
        lo, hi = int(self.offsets[t]), int(self.offsets[t + 1])
        arrays = {
            "feature": self.feature, "threshold": self.threshold,
            "left": self.left, "right": self.right,
        }
        return FlatTree(slice_tree(arrays, lo, hi), self.counts[lo:hi].copy())

    def __iter__(self):
        return (self[t] for t in range(len(self)))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """(trees, rows) global node index of the leaf each pair reaches."""
        return _route(
            self.feature, self.threshold, self.left, self.right,
            self.offsets[:-1], X,
        )

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Mean of the members' leaf probabilities.

        Bit-identical to ``total = zeros; total += tree.predict_proba(X)``
        over the members in order, then ``total /= len(trees)``.  Each
        block's leaf probabilities are stacked under the running total in a
        C-contiguous (1 + trees, rows, classes) buffer and summed over the
        leading axis — not numpy's fast axis, so the slices are added one
        by one in tree order, no pairwise regrouping.  (A (trees, 1, 1)
        block is summed pairwise, but with one class every probability is
        exactly 1.0 and the sum is exact in any order.)
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        n_rows, n_trees = X.shape[0], len(self)
        total = np.zeros((n_rows, self.n_classes), dtype=np.float64)
        trees_per_block = max(1, min(n_trees, _FOREST_PAIRS // max(1, n_rows)))
        rows_per_block = max(1, _FOREST_PAIRS // trees_per_block)
        for t in range(0, n_trees, trees_per_block):
            roots = self.offsets[t : min(n_trees, t + trees_per_block)]
            for lo in range(0, n_rows, rows_per_block):
                out = total[lo : lo + rows_per_block]
                idx = _route(
                    self.feature, self.threshold, self.left, self.right,
                    roots, X[lo : lo + rows_per_block],
                )
                stack = np.empty((len(roots) + 1,) + out.shape, dtype=np.float64)
                stack[0] = out
                np.take(self.proba, idx, axis=0, out=stack[1:])
                np.sum(stack, axis=0, out=out)
        total /= n_trees
        return total


def restore_forest_state(model, state: dict) -> None:
    """``__setstate__`` of the forest classifiers.

    Snapshots written before forests were packed hold ``trees_`` as a list
    of :class:`FlatTree`; it is packed on load, and the packed sum equals
    the per-tree loop those models predicted with, so such a snapshot
    predicts the same bits it did when it was saved.
    """
    model.__dict__.update(state)
    if isinstance(model.__dict__.get("trees_"), list):
        model.trees_ = FlatForest.from_trees(model.trees_)
