"""Presorted breadth-first tree *fitting* engine.

The recursive builder (:func:`~repro.classifiers.tree.builder.build_tree`)
re-``argsort``s every candidate column at every node.  This module removes
that cost structurally:

* :class:`PresortedMatrix` — argsort every feature column **once** per
  training matrix (and derive the presort of any bootstrap/subset sample by
  a stable filter, never by re-sorting);
* :func:`fit_flat_tree` / :func:`fit_flat_regression_tree` — grow the node
  frontier **level-synchronously**: per-column sorted orders are maintained
  through splits by stable partition, every level's split scan runs as one
  prefix-sum pass over all frontier nodes at once, and nodes are emitted
  directly into :class:`~repro.classifiers.tree.flat.FlatTree` /
  ``FlatRegressionTree`` arrays (no ``TreeNode`` intermediate);
* :func:`fit_flat_forest` / :func:`fit_flat_regression_forest` — grow an
  entire ensemble **in lockstep**: one frontier holds every member's nodes
  (each bootstrap sample is its own block of the shared instance space),
  so each level's fixed numpy dispatch cost is amortised over the whole
  forest instead of being paid per tree.  The classification forest
  returns one packed :class:`~repro.classifiers.tree.flat.FlatForest`;
* :func:`share_presort` / :func:`shared_presort_for` — a weak registry that
  lets ``CrossValObjective`` pin one presort per fold so every tree-family
  HPO candidate (and every ensemble member, via ``subsample``) reuses it.

**Equality contract.**  Fitted trees are node-for-node identical to the
recursive reference builder — same splits, same thresholds, same counts —
under instance weights, ``max_features`` and every criterion (enforced by
``tests/test_tree_presort.py``).  The load-bearing invariants:

* *Stable partition*: restricting a stably-sorted order to a node's
  instances yields exactly the stable sort of that node's subset, so the
  engine's per-node column orders match what the reference's per-node
  ``argsort(kind="stable")`` produces, tie groups included.
* *Exact prefix sums*: with unit instance weights every prefix count is an
  exact small integer, so one **segmented** cumsum over the concatenated
  frontier (global cumsum minus each segment's starting offset) equals the
  reference's per-node cumsums bit-for-bit.  Float-weighted fits instead
  take a **padded** scan — nodes bucketed by size into rectangular
  workspaces whose per-node cumsum sequences are literally the per-node
  passes (padding rows carry zero weight and sit after every real row).
* *Order-independent feature subsampling*: per-node ``max_features``
  candidate sets are drawn from a splitmix64 hash of (tree seed, heap path
  key), not from a shared rng stream, so depth-first and breadth-first
  growth see identical candidate sets.  Both engines consume exactly one
  ``rng.integers`` draw per fitted tree.
* *Bootstrap multiplicities*: a classification forest member's instance
  space holds each *distinct* sampled row once, ascending, with its draw
  count as an integer weight.  A fitted tree is invariant to instance
  permutation (counts are sums; equal feature values never form a split
  boundary), and a row's copies always share a node and sit adjacent in
  every column order, so the only split positions they add lie inside
  tie runs — never candidates.  Class counts, child sizes and prefix sums
  of draw counts are exact small integers, equal to the unit-weight sums
  over the expanded sample bit for bit, and ``min_split``/``min_bucket``
  compare draw counts; the result is node-for-node the tree grown on
  ``X[sample]``.  The regression forest keeps the expanded sample (its
  node means are float pairwise sums, so only the expanded sample
  reproduces them), ordered ascending with duplicates adjacent.

See DESIGN.md ("Presorted breadth-first fitting engine").
"""

from __future__ import annotations

import threading
import weakref

import numpy as np

from repro.classifiers.tree.criteria import (
    children_impurity,
    children_impurity_sized,
    impurity_function,
)
from repro.classifiers.tree.flat import (
    FlatForest,
    FlatRegressionTree,
    FlatTree,
    slice_tree,
)

__all__ = [
    "PresortedMatrix",
    "FeatureSampler",
    "fit_flat_tree",
    "fit_flat_forest",
    "fit_flat_regression_tree",
    "fit_flat_regression_forest",
    "share_presort",
    "shared_presort_for",
    "presort_for",
    "draw_tree_seed",
]

#: Workspace cell budget for one scan chunk; a cell is one entry of the
#: (rows x columns x classes) workspace (classes = 1 for the regression
#: scan).  Matches the recursive builder's budget so both engines chunk at
#: the same scale.
_VECTOR_CELLS = 1 << 22


# --------------------------------------------------------------- presorting
class PresortedMatrix:
    """Per-column stable argsort of a training matrix, computed once.

    ``order[c]`` lists the row indices of ``X`` sorted ascending by column
    ``c`` (stable, so ties stay in row order).  ``XT`` is the C-contiguous
    transpose the scan gathers from.  Derived presorts for bootstrap or
    subset samples come from :meth:`subsample` — a stable filter over the
    root order, never a re-sort.
    """

    __slots__ = ("X", "XT", "order", "__weakref__")

    def __init__(self, X: np.ndarray, order: np.ndarray | None = None):
        self.X = np.ascontiguousarray(X, dtype=np.float64)
        self.XT = np.ascontiguousarray(self.X.T)
        if order is None:
            order = np.argsort(self.X, axis=0, kind="stable").T
        self.order = np.ascontiguousarray(order, dtype=np.intp)  # (d, n)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_cols(self) -> int:
        return self.X.shape[1]

    def take_columns(self, columns: np.ndarray) -> "PresortedMatrix":
        """Presort of ``X[:, columns]`` (row ids unchanged, no re-sort)."""
        columns = np.asarray(columns, dtype=np.intp)
        return PresortedMatrix(self.X[:, columns], order=self.order[columns])

    def subsample(self, rows: np.ndarray) -> tuple["PresortedMatrix", np.ndarray]:
        """Presort of the (multi)set sample ``rows``, no re-sorting.

        Returns ``(presort, sample_sorted)``: ``sample_sorted`` is the
        sample in ascending original-row order (duplicates adjacent) and
        the presort covers ``X[sample_sorted]``.  Ensemble fits share one
        instance space instead (:func:`_forest_instance_space`) and skip
        the matrix copies.
        """
        order, _, sample_sorted = _expand_draws(*_forest_instance_space(self, [rows]))
        return PresortedMatrix(self.X[sample_sorted], order=order), sample_sorted


# ---------------------------------------------------------- shared registry
# CrossValObjective pins one presort per fold here so every tree-family
# candidate evaluated on that fold — across all HPO configurations — reuses
# it.  Keys are array object identities; entries are weak so a dying
# objective releases its presorts.  Lookup verifies the array object itself
# (``is`` against the entry's matrix or any registered alias), so a
# recycled id can never alias a different matrix.
#
# ``content_key`` rekeys the registry by content: a worker that attaches a
# shared-memory fold buffer registers its view under ``("segment",
# digest)``, so re-attachments of the same published content — across
# candidates and across fan-outs — resolve to one entry (and one argsort)
# even though each attachment is a distinct array object.  The later
# arrays join the entry as *aliases*; identity lookups on them hit too.
_SHARED: dict[int, "weakref.ref[_SharedEntry]"] = {}
_SHARED_BY_KEY: dict[tuple, "weakref.ref[_SharedEntry]"] = {}
_SHARED_LOCK = threading.Lock()


class _SharedEntry:
    """Strong handle to a lazily-computed shared presort."""

    __slots__ = ("X", "aliases", "_presort", "_lock", "__weakref__")

    def __init__(self, X: np.ndarray):
        self.X = X
        #: Content-identical array objects sharing this entry (strong refs;
        #: they are zero-copy views whose buffers live elsewhere anyway).
        self.aliases: list[np.ndarray] = []
        self._presort: PresortedMatrix | None = None
        self._lock = threading.Lock()

    def covers(self, X: np.ndarray) -> bool:
        return self.X is X or any(alias is X for alias in self.aliases)

    def presort(self) -> PresortedMatrix:
        with self._lock:
            if self._presort is None:
                self._presort = PresortedMatrix(self.X)
            return self._presort


def _register_identity(entry: _SharedEntry, X: np.ndarray) -> None:
    key = id(X)
    _SHARED[key] = weakref.ref(
        entry, lambda _ref, _key=key: _SHARED.pop(_key, None)
    )


def share_presort(X: np.ndarray, content_key: tuple | None = None) -> _SharedEntry:
    """Register ``X`` for presort sharing; keep the returned handle alive.

    The presort itself is computed lazily on the first tree fit that looks
    it up, so registering folds that never train a tree costs nothing.
    With ``content_key`` the registration is also content-addressed:
    callers that *know* two arrays hold identical content (the shared-
    memory attachment path, keyed by segment digest) funnel them into one
    entry, so the argsort is computed once however many views exist.
    """
    X = np.asarray(X)
    with _SHARED_LOCK:
        existing = _SHARED.get(id(X))
        entry = existing() if existing is not None else None
        if entry is not None and entry.covers(X):
            return entry
        if content_key is not None:
            ref = _SHARED_BY_KEY.get(content_key)
            entry = ref() if ref is not None else None
            if entry is not None:
                entry.aliases.append(X)
                _register_identity(entry, X)
                return entry
        entry = _SharedEntry(X)
        _register_identity(entry, X)
        if content_key is not None:
            _SHARED_BY_KEY[content_key] = weakref.ref(
                entry,
                lambda _ref, _key=content_key: _SHARED_BY_KEY.pop(_key, None),
            )
        return entry


def shared_presort_for(X: np.ndarray) -> PresortedMatrix | None:
    """The shared presort registered for this exact array object, if any."""
    ref = _SHARED.get(id(X))
    entry = ref() if ref is not None else None
    if entry is not None and entry.covers(X):
        return entry.presort()
    return None


def presort_for(X: np.ndarray, presort: PresortedMatrix | None = None) -> PresortedMatrix:
    """The presort to fit with: the caller's, the shared one, or a fresh one.

    This is the standard entry point for every tree-family fit: an explicit
    ``presort`` wins, else a registry hit for this exact array, else a
    fresh argsort.
    """
    if presort is not None:
        return presort
    shared = shared_presort_for(X)
    if shared is not None:
        return shared
    return PresortedMatrix(X)


# ------------------------------------------------------- feature subsampling
def draw_tree_seed(rng: np.random.Generator) -> int:
    """The one rng draw a ``max_features`` tree consumes (both engines)."""
    return int(rng.integers(0, 2**63 - 1))


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = (x + _GOLDEN) & np.uint64(0xFFFFFFFFFFFFFFFF)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _column_salt(n_columns: int) -> np.ndarray:
    return _splitmix64(np.arange(1, n_columns + 1, dtype=np.uint64))


def _hash_candidates(
    tree_seeds: np.ndarray,
    node_keys: np.ndarray,
    salt: np.ndarray,
    max_features: int,
) -> np.ndarray:
    """(n_nodes, max_features) candidate columns, order-independent.

    Each node's candidate set (and its order, which fixes the cross-column
    tie-break) is the ``max_features`` smallest splitmix64 hashes over
    (its tree's seed, its heap path key, column) — identical whether nodes
    are visited depth-first, breadth-first, or across a lockstep forest.
    """
    mixed = _splitmix64(node_keys * _GOLDEN ^ tree_seeds)
    scores = _splitmix64(mixed[:, None] ^ salt[None, :])
    return np.argsort(scores, axis=1, kind="stable")[:, :max_features].astype(np.intp)


class FeatureSampler:
    """Per-node ``max_features`` candidate sets for one tree (reference path)."""

    __slots__ = ("tree_seed", "n_columns", "max_features", "_salt")

    def __init__(self, tree_seed: int, n_columns: int, max_features: int):
        self.tree_seed = np.uint64(tree_seed)
        self.n_columns = int(n_columns)
        self.max_features = int(max_features)
        self._salt = _column_salt(n_columns)

    def candidates(self, node_keys: np.ndarray) -> np.ndarray:
        node_keys = np.asarray(node_keys, dtype=np.uint64).reshape(-1)
        seeds = np.broadcast_to(self.tree_seed, node_keys.shape)
        return _hash_candidates(seeds, node_keys, self._salt, self.max_features)

    def candidates_for(self, node_key: np.uint64) -> np.ndarray:
        """Candidate columns of one node (the recursive reference's call)."""
        return self.candidates(np.asarray([node_key], dtype=np.uint64))[0]


def make_feature_sampler(
    n_columns: int,
    max_features: int | None,
    rng: np.random.Generator | None,
) -> FeatureSampler | None:
    """Sampler for a tree fit, or None when every column is always scanned.

    Consumes exactly one rng draw when (and only when) subsampling is
    active, so recursive and breadth-first fits advance a shared rng stream
    identically.
    """
    if max_features is None or max_features >= n_columns:
        return None
    assert rng is not None, "max_features requires an rng"
    return FeatureSampler(draw_tree_seed(rng), n_columns, max_features)


# --------------------------------------------------------- frontier helpers
def _segment_bincount(
    node_of_pos: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray,
    n_nodes: int,
    n_classes: int,
) -> np.ndarray:
    """Per-node class histograms, accumulated in ascending-instance order.

    Matches the reference's per-node ``np.bincount(node_y, weights)``
    bit-for-bit: ``labels``/``weights`` arrive ordered by (node, instance
    id), and ``bincount`` adds sequentially in input order.
    """
    combined = node_of_pos * n_classes + labels
    out = np.bincount(combined, weights=weights, minlength=n_nodes * n_classes)
    return out.reshape(n_nodes, n_classes)


def _scan_buckets(sizes: np.ndarray, cell_factor: int) -> list[np.ndarray]:
    """Group node indices into padded scan chunks (float-weight path).

    Nodes are classed geometrically by size (ratio 8), so each node is
    padded to at most ~8x its own row count while a whole level collapses
    into a handful of rectangular chunks — fixed Python/numpy dispatch per
    chunk is the engine's dominant overhead, padding is vectorized and
    cheap.  Classes larger than the ``_VECTOR_CELLS`` budget are split
    (``cell_factor`` = cells per padded row: candidate columns, times
    classes for the classification scan).
    """
    klass = np.zeros(sizes.size, dtype=np.int64)
    np.floor_divide(np.log2(np.maximum(sizes, 2)), 3, out=klass, casting="unsafe")
    buckets: list[np.ndarray] = []
    for kv in np.unique(klass):
        members = np.flatnonzero(klass == kv)
        m_max = int(sizes[members].max())
        cap = max(1, _VECTOR_CELLS // max(1, m_max * cell_factor))
        for lo in range(0, members.size, cap):
            buckets.append(members[lo : lo + cap])
    return buckets


class _Frontier:
    """Per-level bookkeeping shared by the class/regression engines.

    ``order`` is (d + 1, m_active): row ``c < d`` holds the active instance
    ids sorted by column ``c``, row ``d`` holds them in ascending-id order
    (used for reference-order payload accumulation).  All rows share the
    same node segmentation ``starts``.  In lockstep-forest mode the
    instance space is the concatenation of every member's bootstrap
    instances and the initial segments are the per-tree blocks.  Splits
    are applied by stable partition: one ``child-id`` stable argsort per
    level keeps every column's sorted order intact below the root without
    ever re-sorting.
    """

    def __init__(self, order: np.ndarray, starts: np.ndarray):
        n = order.shape[1]
        ident = np.arange(n, dtype=np.intp)[None, :]
        self.order = np.concatenate([order, ident], axis=0)
        self.starts = np.asarray(starts, dtype=np.intp)
        self.n_instances = n
        self.sizes = np.diff(self.starts)

    def instance_ids(self) -> np.ndarray:
        """Active instance ids ordered by (node segment, ascending id)."""
        return self.order[-1]

    def node_of_position(self) -> np.ndarray:
        return np.repeat(np.arange(self.sizes.size, dtype=np.intp), self.sizes)

    def partition(
        self,
        split_nodes: np.ndarray,
        go_left_of_instance: np.ndarray,
        child_sizes: np.ndarray,
        node_of_pos: np.ndarray,
    ) -> None:
        """Stable-partition every column's order around the routed splits.

        One stable argsort of small child ids per level keeps every
        column's sorted order intact below the root without ever
        re-sorting by feature value; instances of non-splitting nodes
        leave the frontier.  numpy's stable sort is a radix sort only for
        types of 16 bits or less (timsort otherwise), so child ids are
        int16 whenever the level's ``2 * n_split`` ids fit, int32 beyond.
        """
        n_split = split_nodes.size
        id_type = np.int16 if 2 * n_split <= np.iinfo(np.int16).max else np.int32
        child_of_instance = np.full(self.n_instances, -1, dtype=id_type)
        split_flag = np.zeros(self.sizes.size, dtype=bool)
        split_flag[split_nodes] = True
        local = np.zeros(self.sizes.size, dtype=id_type)
        local[split_nodes] = np.arange(n_split, dtype=id_type)
        pos_mask = split_flag[node_of_pos]
        inst = self.order[-1][pos_mask]
        base = local[node_of_pos[pos_mask]] * 2
        child_of_instance[inst] = base + (~go_left_of_instance[inst]).astype(id_type)

        child = child_of_instance[self.order]
        keep = child >= 0
        m_new = int(child_sizes.sum())
        kept_order = self.order[keep].reshape(self.order.shape[0], m_new)
        kept_child = child[keep].reshape(self.order.shape[0], m_new)
        perm = np.argsort(kept_child, axis=1, kind="stable")
        self.order = np.take_along_axis(kept_order, perm, axis=1)
        self.starts = np.concatenate(([0], np.cumsum(child_sizes)))
        self.sizes = np.diff(self.starts)


def _padded_gather(
    starts: np.ndarray, sizes: np.ndarray, bucket: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """(positions, real-mask, padded width) for one size bucket."""
    m_max = int(sizes[bucket].max())
    offsets = np.minimum(np.arange(m_max), sizes[bucket, None] - 1)
    gidx = starts[bucket, None] + offsets
    real = np.arange(m_max)[None, :] < sizes[bucket, None]
    return gidx, real, m_max


def _pick_splits(
    scores: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-node winning (score, column, threshold) from a padded
    (nodes, positions, columns) score tensor (invalid positions = inf).

    First-occurrence ``argmin`` within a column, then first-occurrence
    ``argmin`` across columns — the reference tie-break contract of
    ``select_best_column_split``, batched over nodes.
    """
    b = scores.shape[0]
    col_pos = np.argmin(scores, axis=1)                       # (B, C)
    col_scores = np.take_along_axis(scores, col_pos[:, None, :], axis=1)[:, 0, :]
    j = np.argmin(col_scores, axis=1)                         # (B,)
    best_score = col_scores[np.arange(b), j]
    pos = col_pos[np.arange(b), j]
    lo = xs[np.arange(b), pos, j]
    hi = xs[np.arange(b), pos + 1, j]
    threshold = 0.5 * (lo + hi)
    return best_score, j, threshold


def _route_level(
    frontier: _Frontier,
    XT: np.ndarray,
    row_of_instance: np.ndarray | None,
    feature: np.ndarray,
    threshold: np.ndarray,
    node_of_pos: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Route instances through this level's tentative splits.

    Partitioning follows the actual ``x[feature] <= threshold`` mask, as
    the reference does — not the scan position, because a midpoint
    threshold can round onto a boundary value.  Splits that leave a child
    empty are demoted back to leaves (the reference's empty-side guard).
    Returns the final (feature, threshold, splitting nodes, per-instance
    go-left flags, interleaved per-child sizes).
    """
    tentative = np.flatnonzero(feature >= 0)
    if not tentative.size:
        empty = np.empty(0, dtype=np.intp)
        return feature, threshold, tentative, empty, empty

    sizes = frontier.sizes
    tent_flag = np.zeros(sizes.size, dtype=bool)
    tent_flag[tentative] = True
    pos_mask = tent_flag[node_of_pos]
    inst = frontier.order[-1][pos_mask]
    node_rep = node_of_pos[pos_mask]
    rows = inst if row_of_instance is None else row_of_instance[inst]
    go_left = np.zeros(frontier.n_instances, dtype=bool)
    go_left[inst] = XT[feature[node_rep], rows] <= threshold[node_rep]

    left_counts = np.bincount(
        node_rep, weights=go_left[inst], minlength=sizes.size
    ).astype(np.intp)
    degenerate = tentative[
        (left_counts[tentative] == 0) | (left_counts[tentative] == sizes[tentative])
    ]
    if degenerate.size:
        feature[degenerate] = -1
        threshold[degenerate] = 0.0
    splitting = np.flatnonzero(feature >= 0)
    child_sizes = np.empty(2 * splitting.size, dtype=np.intp)
    child_sizes[0::2] = left_counts[splitting]
    child_sizes[1::2] = sizes[splitting] - left_counts[splitting]
    return feature, threshold, splitting, go_left, child_sizes


# ----------------------------------------------------------- split scanning
def _segment_offsets(prefix: np.ndarray, starts_c: np.ndarray) -> np.ndarray:
    """Per-segment starting value of a global prefix sum (row 0 = zeros)."""
    offset = np.zeros((starts_c.size - 1,) + prefix.shape[1:])
    offset[1:] = prefix[starts_c[1:-1] - 1]
    return offset


def _scan_classification_segmented(
    XT: np.ndarray,
    row_of_instance: np.ndarray | None,
    frontier: _Frontier,
    split_idx: np.ndarray,
    cand: np.ndarray | None,
    y: np.ndarray,
    draws: np.ndarray | None,
    node_draws: np.ndarray,
    n_classes: int,
    params,
    parent_impurity: np.ndarray,
    node_of_pos: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer-weight split scan: one segmented pass over the whole level.

    With unit weights, or integer draw counts (``draws``, indexed by
    instance id), every prefix count is an exact small integer, so a
    *global* cumsum over the concatenated node segments minus each
    segment's starting offset reproduces the per-node cumsums bit-for-bit
    — no padding, no per-bucket chunking, one numpy pass per level
    regardless of how many frontier nodes (or lockstep trees) there are.
    ``cand``, ``parent_impurity`` and ``node_draws`` (per-node weight
    totals) are aligned with ``split_idx`` order; ``y`` is indexed by
    instance id.
    """
    order = frontier.order
    d = XT.shape[0]
    n_split = split_idx.size

    sizes = frontier.sizes[split_idx]
    starts_c = np.concatenate(([0], np.cumsum(sizes)))        # segment bounds
    m_lvl = int(starts_c[-1])
    split_flag = np.zeros(frontier.sizes.size, dtype=bool)
    split_flag[split_idx] = True
    pos_sel = np.flatnonzero(split_flag[node_of_pos])
    node_rep = np.repeat(np.arange(n_split, dtype=np.intp), sizes)
    parent_rep = parent_impurity[node_rep][:, None]
    seg_ends = starts_c[1:] - 1

    out_score = np.full(n_split, np.inf)
    out_feature = np.full(n_split, -1, dtype=np.intp)
    out_threshold = np.zeros(n_split)

    n_cand = d if cand is None else cand.shape[1]
    col_cap = max(1, _VECTOR_CELLS // max(1, m_lvl * n_classes))
    positions = np.arange(m_lvl, dtype=np.intp)[:, None]
    # Candidate child sizes are the same exact integers as ``left.sum(-1)``
    # / ``right.sum(-1)``, at (columns x classes) less arithmetic per
    # level.  Unit weights make them pure positions (n_left at in-segment
    # position p is p + 1, for every column); draw counts make them a
    # segmented cumsum of the draws in each candidate column's order.
    node_total = np.repeat(node_draws, sizes)[:, None]
    if draws is None:
        local_pos = np.arange(m_lvl) - np.repeat(starts_c[:-1], sizes)
        n_left = (local_pos + 1).astype(np.float64)[:, None]
        n_right = node_total - n_left
        size_valid = (n_left >= params.min_bucket) & (n_right >= params.min_bucket)
    for c_lo in range(0, n_cand, col_cap):
        c_hi = min(n_cand, c_lo + col_cap)
        c = c_hi - c_lo
        if cand is None:
            cols_rep = np.broadcast_to(np.arange(c_lo, c_hi, dtype=np.intp), (m_lvl, c))
            inst = order[c_lo:c_hi][:, pos_sel].T
        else:
            cols_rep = cand[node_rep, c_lo:c_hi]
            inst = order[cols_rep, pos_sel[:, None]]
        rows = inst if row_of_instance is None else row_of_instance[inst]
        xs = XT[cols_rep, rows]                               # (m_lvl, C)
        ys = y[inst]

        onehot = np.zeros((m_lvl, c, n_classes))
        if draws is None:
            np.put_along_axis(onehot, ys[..., None], 1.0, axis=2)
        else:
            ws = draws[inst]                                  # (m_lvl, C)
            np.put_along_axis(onehot, ys[..., None], ws[..., None], axis=2)
            n_left = np.cumsum(ws, axis=0, out=ws)
            n_left -= np.repeat(_segment_offsets(n_left, starts_c), sizes, axis=0)
            n_right = node_total - n_left
            size_valid = (n_left >= params.min_bucket) & (n_right >= params.min_bucket)
        gprefix = np.cumsum(onehot, axis=0, out=onehot)
        offset = _segment_offsets(gprefix, starts_c)
        totals = gprefix[seg_ends] - offset                   # (F, C, k)
        gprefix -= np.repeat(offset, sizes, axis=0)
        left = gprefix
        right = np.repeat(totals, sizes, axis=0)
        right -= left

        boundary = np.zeros((m_lvl, c), dtype=bool)
        if m_lvl > 1:
            boundary[:-1] = np.diff(xs, axis=0) > 1e-12
        boundary[seg_ends] = False                            # no cross-segment splits
        valid = boundary & size_valid
        scores = children_impurity_sized(
            left, right, n_left, n_right, params.criterion, parent_rep,
            consume=True,  # left/right are this pass's scratch buffers
        )
        scores = np.where(valid, scores, np.inf)

        col_min = np.minimum.reduceat(scores, starts_c[:-1], axis=0)
        hit = scores == np.repeat(col_min, sizes, axis=0)
        pos_of_hit = np.where(hit, positions, m_lvl)
        col_pos = np.minimum.reduceat(pos_of_hit, starts_c[:-1], axis=0)

        j = np.argmin(col_min, axis=1)
        score_c = col_min[np.arange(n_split), j]
        better = score_c < out_score
        f = np.flatnonzero(better & np.isfinite(score_c))
        if f.size:
            out_score[f] = score_c[f]
            pos = col_pos[f, j[f]]
            jj = j[f]
            out_threshold[f] = 0.5 * (xs[pos, jj] + xs[pos + 1, jj])
            if cand is None:
                out_feature[f] = c_lo + jj
            else:
                out_feature[f] = cand[f, c_lo + jj]
    return out_score, out_feature, out_threshold


def _scan_classification_padded(
    XT: np.ndarray,
    row_of_instance: np.ndarray | None,
    frontier: _Frontier,
    split_idx: np.ndarray,
    cand: np.ndarray | None,
    y: np.ndarray,
    weights: np.ndarray,
    n_classes: int,
    params,
    parent_impurity: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float-weight split scan via padded rectangular buckets.

    ``cand`` and ``parent_impurity`` are aligned with ``split_idx`` order.
    Returns (score, feature, threshold) per node in that order;
    ``feature == -1`` marks nodes with no valid split.  The scan
    arithmetic — one-hot scatter, cumsum, ``children_impurity``, validity
    masks, argmin tie-breaks — reproduces the reference builder's
    ``_best_split_all_columns`` per node bit-for-bit (padding rows carry
    zero weight and sit after every real row, so per-node cumsums are the
    per-node passes).
    """
    starts, sizes = frontier.starts, frontier.sizes
    d = XT.shape[0]
    n_split = split_idx.size

    out_score = np.full(n_split, np.inf)
    out_feature = np.full(n_split, -1, dtype=np.intp)
    out_threshold = np.zeros(n_split)

    n_cand = d if cand is None else cand.shape[1]
    for bucket_local in _scan_buckets(sizes[split_idx], n_cand * n_classes):
        bucket = split_idx[bucket_local]
        gidx, real, _ = _padded_gather(starts, sizes, bucket)
        _scan_padded_chunk(
            XT, row_of_instance, frontier.order, y, weights, n_classes, params,
            bucket_local, gidx, real,
            None if cand is None else cand[bucket_local],
            parent_impurity, out_score, out_feature, out_threshold,
        )
    return out_score, out_feature, out_threshold


def _scan_padded_chunk(
    XT, row_of_instance, order, y, weights, n_classes, params,
    chunk_local, gidx, real, cand,
    parent_impurity, out_score, out_feature, out_threshold,
) -> None:
    b, m_max = gidx.shape
    d = XT.shape[0]
    if cand is None:
        cols = np.broadcast_to(np.arange(d, dtype=np.intp), (b, d))
    else:
        cols = cand
    n_cand = cols.shape[1]

    # Column-chunk oversized nodes (huge m_max): scan candidate columns in
    # groups, merging with the earliest-column-wins contract.
    col_cap = max(1, _VECTOR_CELLS // max(1, b * m_max * n_classes))
    best_score = np.full(b, np.inf)
    best_col = np.full(b, -1, dtype=np.intp)        # index into cols order
    best_threshold = np.zeros(b)

    parent_b = parent_impurity[chunk_local][:, None, None]
    for c_lo in range(0, n_cand, col_cap):
        cc = cols[:, c_lo : c_lo + col_cap]
        c = cc.shape[1]
        inst = order[cc[:, None, :], gidx[:, :, None]]            # (B, M, C)
        rows = inst if row_of_instance is None else row_of_instance[inst]
        xs = XT[cc[:, None, :], rows]
        ys = y[inst]
        ws = np.where(real[:, :, None], weights[inst], 0.0)

        onehot = np.zeros((b, m_max, c, n_classes))
        np.put_along_axis(onehot, ys[..., None], ws[..., None], axis=3)
        prefix = np.cumsum(onehot, axis=1)
        # Padding rows carry zero weight, so the global last row IS each
        # node's total (bitwise: adding 0.0 to a non-negative prefix is
        # exact).
        total = prefix[:, -1]                                     # (B, C, k)
        left = prefix[:, :-1]
        right = total[:, None, :, :] - left

        n_left = left.sum(axis=3)
        n_right = right.sum(axis=3)
        boundary = np.diff(xs, axis=1) > 1e-12
        valid = (
            boundary
            & real[:, 1:, None]
            & (n_left >= params.min_bucket)
            & (n_right >= params.min_bucket)
        )
        if not valid.any():
            continue
        scores = children_impurity(left, right, params.criterion, parent_b)
        scores = np.where(valid, scores, np.inf)

        score_c, j_c, thr_c = _pick_splits(scores, xs)
        better = score_c < best_score
        best_score = np.where(better, score_c, best_score)
        best_col = np.where(better, c_lo + j_c, best_col)
        best_threshold = np.where(better, thr_c, best_threshold)

    found = np.isfinite(best_score)
    if not found.any():
        return
    f = np.flatnonzero(found)
    out_idx = chunk_local[f]
    out_score[out_idx] = best_score[f]
    out_feature[out_idx] = cols[f, best_col[f]]
    out_threshold[out_idx] = best_threshold[f]


def _scan_regression(
    XT: np.ndarray,
    row_of_instance: np.ndarray | None,
    frontier: _Frontier,
    split_idx: np.ndarray,
    cand: np.ndarray | None,
    y: np.ndarray,
    min_bucket: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Regression (SSE) twin of the padded classification scan.

    Always padded: the cumulated quantities are float targets, so the
    segmented-offset trick would not be bitwise-faithful.  ``cand`` is
    aligned with ``split_idx`` order; ``y`` is indexed by instance id.
    """
    starts, sizes = frontier.starts, frontier.sizes
    d = XT.shape[0]
    n_split = split_idx.size

    out_feature = np.full(n_split, -1, dtype=np.intp)
    out_threshold = np.zeros(n_split)

    n_cand = d if cand is None else cand.shape[1]
    for bucket_local in _scan_buckets(sizes[split_idx], n_cand):
        bucket = split_idx[bucket_local]
        gidx, real, _ = _padded_gather(starts, sizes, bucket)
        _scan_regression_chunk(
            XT, row_of_instance, frontier.order, y, min_bucket,
            bucket_local, gidx, real,
            None if cand is None else cand[bucket_local],
            out_feature, out_threshold,
        )
    return out_feature, out_threshold


def _scan_regression_chunk(
    XT, row_of_instance, order, y, min_bucket,
    chunk_local, gidx, real, cand,
    out_feature, out_threshold,
) -> None:
    b, m_max = gidx.shape
    d = XT.shape[0]
    cols = np.broadcast_to(np.arange(d, dtype=np.intp), (b, d)) if cand is None else cand
    n_cand = cols.shape[1]

    col_cap = max(1, _VECTOR_CELLS // max(1, b * m_max))
    best_score = np.full(b, np.inf)
    best_col = np.full(b, -1, dtype=np.intp)
    best_threshold = np.zeros(b)

    sizes_b = real.sum(axis=1)
    for c_lo in range(0, n_cand, col_cap):
        cc = cols[:, c_lo : c_lo + col_cap]
        inst = order[cc[:, None, :], gidx[:, :, None]]
        rows = inst if row_of_instance is None else row_of_instance[inst]
        xs = XT[cc[:, None, :], rows]
        ys = np.where(real[:, :, None], y[inst], 0.0)

        csum = np.cumsum(ys, axis=1)
        csum2 = np.cumsum(ys**2, axis=1)
        # Padded rows are zero, so the last row is every node's total
        # (adding 0.0 is exact for these sums).
        total = csum[:, -1][:, None, :]
        total2 = csum2[:, -1][:, None, :]

        n_left = np.arange(1, m_max, dtype=np.float64)[None, :, None]
        n_right = sizes_b[:, None, None].astype(np.float64) - n_left
        boundary = np.diff(xs, axis=1) > 1e-12
        valid = (
            boundary
            & real[:, 1:, None]
            & (n_left >= min_bucket)
            & (n_right >= min_bucket)
        )
        if not valid.any():
            continue

        sum_left = csum[:, :-1]
        sum_right = total - sum_left
        sq_left = csum2[:, :-1]
        sq_right = total2 - sq_left
        with np.errstate(divide="ignore", invalid="ignore"):
            sse = (
                sq_left - sum_left**2 / n_left
                + sq_right - sum_right**2 / n_right
            )
        sse = np.where(valid, sse, np.inf)

        score_c, j_c, thr_c = _pick_splits(sse, xs)
        better = score_c < best_score
        best_score = np.where(better, score_c, best_score)
        best_col = np.where(better, c_lo + j_c, best_col)
        best_threshold = np.where(better, thr_c, best_threshold)

    found = np.isfinite(best_score)
    if not found.any():
        return
    f = np.flatnonzero(found)
    out_idx = chunk_local[f]
    out_feature[out_idx] = cols[f, best_col[f]]
    out_threshold[out_idx] = best_threshold[f]


# --------------------------------------------------------- lockstep growth
class _NodeLog:
    """BFS-ordered node records accumulated level by level."""

    def __init__(self) -> None:
        self.features: list[np.ndarray] = []
        self.thresholds: list[np.ndarray] = []
        self.payloads: list[np.ndarray] = []
        self.lefts: list[np.ndarray] = []
        self.rights: list[np.ndarray] = []
        self.trees: list[np.ndarray] = []
        self.level_bounds: list[int] = [0]
        self.next_id = 0

    def append_level(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        payload: np.ndarray,
        tree_of_node: np.ndarray,
        splitting: np.ndarray,
    ) -> None:
        n_front = feature.shape[0]
        left_ids = np.full(n_front, -1, dtype=np.intp)
        right_ids = np.full(n_front, -1, dtype=np.intp)
        child_base = self.next_id + n_front
        left_ids[splitting] = child_base + 2 * np.arange(splitting.size)
        right_ids[splitting] = left_ids[splitting] + 1
        self.features.append(feature)
        self.thresholds.append(threshold)
        self.payloads.append(payload)
        self.lefts.append(left_ids)
        self.rights.append(right_ids)
        self.trees.append(tree_of_node)
        self.next_id += n_front
        self.level_bounds.append(self.next_id)

    def assemble(
        self, n_trees: int
    ) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
        """Packed pre-order ``(arrays, payload, tree_offsets)`` from the log.

        Tree ``t`` occupies rows ``tree_offsets[t]:tree_offsets[t + 1]``
        in pre-order; ``left``/``right`` are global row indices into the
        packed table.  Children always live one level below their
        parent, so subtree sizes flow bottom-up and pre-order positions
        top-down with one vectorized pass per level — across all lockstep
        trees at once (every level-0 node is a root at pre-order position
        0 of its own tree).
        """
        feature = np.concatenate(self.features)
        threshold = np.concatenate(self.thresholds)
        payload = np.concatenate(self.payloads, axis=0)
        left = np.concatenate(self.lefts)
        right = np.concatenate(self.rights)
        tree_of = np.concatenate(self.trees)
        bounds = self.level_bounds
        n = feature.shape[0]

        internal = feature >= 0
        size = np.ones(n, dtype=np.intp)
        for lv in range(len(bounds) - 2, -1, -1):
            lo, hi = bounds[lv], bounds[lv + 1]
            idx = np.arange(lo, hi)[internal[lo:hi]]
            if idx.size:
                size[idx] = 1 + size[left[idx]] + size[right[idx]]
        pre = np.zeros(n, dtype=np.intp)
        for lv in range(len(bounds) - 1):
            lo, hi = bounds[lv], bounds[lv + 1]
            idx = np.arange(lo, hi)[internal[lo:hi]]
            if idx.size:
                pre[left[idx]] = pre[idx] + 1
                pre[right[idx]] = pre[idx] + 1 + size[left[idx]]

        tree_sizes = np.bincount(tree_of, minlength=n_trees)
        tree_offsets = np.concatenate(([0], np.cumsum(tree_sizes)))
        gpos = tree_offsets[tree_of] + pre                  # global output slot

        feature_p = np.full(n, -1, dtype=np.intp)
        threshold_p = np.zeros(n, dtype=np.float64)
        left_p = np.full(n, -1, dtype=np.intp)
        right_p = np.full(n, -1, dtype=np.intp)
        payload_p = np.empty_like(payload)
        feature_p[gpos] = feature
        threshold_p[gpos] = threshold
        payload_p[gpos] = payload
        idx = np.flatnonzero(internal)
        if idx.size:
            left_p[gpos[idx]] = gpos[left[idx]]
            right_p[gpos[idx]] = gpos[right[idx]]
        arrays = {
            "feature": feature_p,
            "threshold": threshold_p,
            "left": left_p,
            "right": right_p,
        }
        return arrays, payload_p, tree_offsets


def _split_trees(packed, cls) -> list:
    """One standalone pre-order ``cls`` tree per block of a packed table."""
    arrays, payload, tree_offsets = packed
    return [
        cls(slice_tree(arrays, lo, hi), payload[lo:hi].copy())
        for lo, hi in zip(tree_offsets[:-1], tree_offsets[1:])
    ]


def _grow_classification(
    XT: np.ndarray,
    row_of_instance: np.ndarray | None,
    order0: np.ndarray,
    starts0: np.ndarray,
    y_inst: np.ndarray,
    weights_inst: np.ndarray | None,
    n_classes: int,
    params,
    tree_seeds: np.ndarray | None,
    draws_inst: np.ndarray | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Lockstep breadth-first growth over one or many trees.

    ``order0``/``starts0`` describe the initial instance space: one segment
    per tree, each segment presorted per column.  Instances carry float
    ``weights_inst`` (padded scan; ``min_split`` counts instances), integer
    ``draws_inst`` bootstrap multiplicities (segmented scan; ``min_split``
    and ``min_bucket`` count draws), or neither (unit weights).
    ``tree_seeds`` (uint64 per tree) drive the hash feature sampler when
    ``max_features`` is active.  Returns the packed pre-order node table
    of :meth:`_NodeLog.assemble`.
    """
    n_trees = starts0.shape[0] - 1
    d = XT.shape[0]
    # Integer weights (unit or draw counts) take the segmented scan.
    segmented = weights_inst is None
    if draws_inst is not None:
        weights = draws_inst
    elif segmented:
        weights = np.ones(y_inst.shape[0], dtype=np.float64)
    else:
        weights = weights_inst
    subsampling = (
        params.max_features is not None and params.max_features < d
    )
    salt = _column_salt(d) if subsampling else None
    impurity = impurity_function(params.criterion)

    frontier = _Frontier(order0, starts0)
    node_keys = np.ones(n_trees, dtype=np.uint64)
    node_tree = np.arange(n_trees, dtype=np.intp)
    log = _NodeLog()
    depth = 0

    while frontier.sizes.size:
        n_front = frontier.sizes.size
        sizes = frontier.sizes
        node_of_pos = frontier.node_of_position()
        inst = frontier.instance_ids()
        counts = _segment_bincount(
            node_of_pos, y_inst[inst], weights[inst],
            n_front, n_classes,
        )
        # The reference's node size: its sample's instance count, which on
        # the multiplicity path is the node's draw count.
        n_node = sizes if draws_inst is None else counts.sum(axis=1)

        stopped = (
            (depth >= params.max_depth)
            | (n_node < params.min_split)
            | (np.count_nonzero(counts, axis=1) <= 1)
        )
        split_idx = np.flatnonzero(~stopped)

        feature = np.full(n_front, -1, dtype=np.intp)
        threshold = np.zeros(n_front)

        if split_idx.size:
            parent_impurity = impurity(counts)
            cand = (
                _hash_candidates(
                    tree_seeds[node_tree[split_idx]],
                    node_keys[split_idx],
                    salt,
                    params.max_features,
                )
                if subsampling else None
            )
            if segmented:
                score, feat, thr = _scan_classification_segmented(
                    XT, row_of_instance, frontier, split_idx, cand,
                    y_inst, draws_inst, n_node[split_idx].astype(np.float64),
                    n_classes, params, parent_impurity[split_idx], node_of_pos,
                )
            else:
                score, feat, thr = _scan_classification_padded(
                    XT, row_of_instance, frontier, split_idx, cand,
                    y_inst, weights, n_classes, params, parent_impurity[split_idx],
                )
            # Reference acceptance checks, vectorized per node.
            if params.criterion != "gain_ratio":
                decrease = parent_impurity[split_idx] - score
                rejected = decrease <= params.min_impurity_decrease + 1e-15
            else:
                rejected = -score <= 1e-12
            accepted = (feat >= 0) & ~rejected
            feature[split_idx[accepted]] = feat[accepted]
            threshold[split_idx[accepted]] = thr[accepted]

        feature, threshold, splitting, go_left, child_sizes = (
            _route_level(frontier, XT, row_of_instance, feature, threshold, node_of_pos)
        )
        log.append_level(feature, threshold, counts, node_tree, splitting)

        if not splitting.size:
            break
        frontier.partition(splitting, go_left, child_sizes, node_of_pos)

        child_keys = np.empty(2 * splitting.size, dtype=np.uint64)
        child_keys[0::2] = node_keys[splitting] * np.uint64(2)
        child_keys[1::2] = node_keys[splitting] * np.uint64(2) + np.uint64(1)
        node_keys = child_keys
        node_tree = np.repeat(node_tree[splitting], 2)
        depth += 1

    return log.assemble(n_trees)


def _grow_regression(
    XT: np.ndarray,
    row_of_instance: np.ndarray | None,
    order0: np.ndarray,
    starts0: np.ndarray,
    y_inst: np.ndarray,
    max_depth: int,
    min_split: int,
    min_bucket: int,
    max_features: int | None,
    tree_seeds: np.ndarray | None,
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Lockstep regression twin of :func:`_grow_classification`."""
    n_trees = starts0.shape[0] - 1
    d = XT.shape[0]
    subsampling = max_features is not None and max_features < d
    salt = _column_salt(d) if subsampling else None

    frontier = _Frontier(order0, starts0)
    node_keys = np.ones(n_trees, dtype=np.uint64)
    node_tree = np.arange(n_trees, dtype=np.intp)
    log = _NodeLog()
    depth = 0

    while frontier.sizes.size:
        n_front = frontier.sizes.size
        sizes = frontier.sizes
        starts = frontier.starts
        node_of_pos = frontier.node_of_position()
        ys_level = y_inst[frontier.instance_ids()]

        # Node values via contiguous per-segment means: same pairwise
        # summation as the reference's ``node_y.mean()``.
        values = np.array(
            [ys_level[starts[i]: starts[i + 1]].mean() for i in range(n_front)]
        )
        spread = (
            np.maximum.reduceat(ys_level, starts[:-1])
            - np.minimum.reduceat(ys_level, starts[:-1])
        )
        stopped = (depth >= max_depth) | (sizes < min_split) | (spread < 1e-12)
        split_idx = np.flatnonzero(~stopped)

        feature = np.full(n_front, -1, dtype=np.intp)
        threshold = np.zeros(n_front)

        if split_idx.size:
            cand = (
                _hash_candidates(
                    tree_seeds[node_tree[split_idx]],
                    node_keys[split_idx],
                    salt,
                    max_features,
                )
                if subsampling else None
            )
            feat, thr = _scan_regression(
                XT, row_of_instance, frontier, split_idx, cand, y_inst, min_bucket
            )
            found = feat >= 0
            feature[split_idx[found]] = feat[found]
            threshold[split_idx[found]] = thr[found]

        feature, threshold, splitting, go_left, child_sizes = (
            _route_level(frontier, XT, row_of_instance, feature, threshold, node_of_pos)
        )
        log.append_level(feature, threshold, values, node_tree, splitting)

        if not splitting.size:
            break
        frontier.partition(splitting, go_left, child_sizes, node_of_pos)

        child_keys = np.empty(2 * splitting.size, dtype=np.uint64)
        child_keys[0::2] = node_keys[splitting] * np.uint64(2)
        child_keys[1::2] = node_keys[splitting] * np.uint64(2) + np.uint64(1)
        node_keys = child_keys
        node_tree = np.repeat(node_tree[splitting], 2)
        depth += 1

    return log.assemble(n_trees)


#: Upper bound on the concatenated instance count of one lockstep group.
#: Bigger groups amortise per-level dispatch further but push the scan
#: workspaces out of cache; this is the empirical knee on commodity L3s.
_LOCKSTEP_INSTANCES = 1 << 16


def _sample_groups(samples: list[np.ndarray]) -> list[tuple[int, int]]:
    """(start, stop) member ranges whose total rows fit one lockstep group."""
    groups: list[tuple[int, int]] = []
    start = 0
    total = 0
    for i, sample in enumerate(samples):
        m = len(sample)
        if i > start and total + m > _LOCKSTEP_INSTANCES:
            groups.append((start, i))
            start, total = i, 0
        total += m
    groups.append((start, len(samples)))
    return groups


def _forest_instance_space(
    presort: PresortedMatrix, samples: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Multiplicity instance space for lockstep classification growth.

    Returns ``(order0, starts0, row_of_instance, draws)``: tree ``t``'s
    block holds one instance per *distinct* row of its sample, ascending,
    and ``draws`` is each instance's draw count (float64, exact integers).
    Built for all trees at once: one bincount of the draws, one gather of
    the root order through the (tree, row) -> instance map, one stable
    filter — no per-tree pass, no duplicate expansion.
    """
    n = presort.n_rows
    n_trees = len(samples)
    lengths = np.array([len(sample) for sample in samples], dtype=np.intp)
    tree_of_draw = np.repeat(np.arange(n_trees, dtype=np.intp) * n, lengths)
    keys = tree_of_draw + np.concatenate(samples).astype(np.intp, copy=False)
    draw_counts = np.bincount(keys, minlength=n_trees * n).reshape(n_trees, n)
    occupied = draw_counts > 0
    n_inst = int(np.count_nonzero(occupied))
    # Instance id of every (tree, row), -1 where the row was not drawn;
    # int32 halves the (trees, d, n) gather below.
    inst_of = np.cumsum(occupied, axis=None, dtype=np.int32).reshape(n_trees, n) - 1
    inst_of[~occupied] = -1
    # Column c of the result lists tree 0's instances in column-c order,
    # then tree 1's, ...: the stable filter of the root order per tree.
    gathered = np.take(inst_of, presort.order, axis=1).transpose(1, 0, 2)
    order0 = gathered[gathered >= 0].astype(np.intp).reshape(presort.n_cols, n_inst)
    starts0 = np.concatenate(([0], np.cumsum(occupied.sum(axis=1)))).astype(np.intp)
    row_of_instance = np.nonzero(occupied)[1]
    draws = draw_counts[occupied].astype(np.float64)
    return order0, starts0, row_of_instance, draws


def _expand_draws(
    order0: np.ndarray,
    starts0: np.ndarray,
    row_of_instance: np.ndarray,
    draws: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand a multiplicity instance space into one instance per draw.

    Instance ``i`` becomes ``draws[i]`` consecutive instances, so each
    tree's block is its sample in ascending-row order, duplicates
    adjacent, and every column order lists a row's copies side by side.
    Returns ``(order0, starts0, row_of_instance)`` of the expansion.
    """
    reps = draws.astype(np.intp)
    # first_copy[i]: expanded id of instance i's first copy (and, at the
    # end, the total), so first_copy[starts0] are the expanded tree bounds.
    first_copy = np.concatenate(([0], np.cumsum(reps)))
    flat = order0.ravel()
    flat_reps = reps[flat]
    run_starts = np.cumsum(flat_reps) - flat_reps
    copy_index = np.arange(flat_reps.sum()) - np.repeat(run_starts, flat_reps)
    expanded = np.repeat(first_copy[flat], flat_reps) + copy_index
    return (
        expanded.reshape(order0.shape[0], -1),
        first_copy[starts0],
        np.repeat(row_of_instance, reps),
    )


# ------------------------------------------------------------- public fits
def fit_flat_tree(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    params,
    rng: np.random.Generator | None = None,
    weights: np.ndarray | None = None,
    presort: PresortedMatrix | None = None,
) -> FlatTree:
    """Grow a classification tree breadth-first; returns a pre-order
    :class:`FlatTree` node-for-node equal to ``FlatTree.from_node`` of the
    recursive reference ``build_tree`` on the same inputs.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    presort = presort_for(X, presort)
    d = X.shape[1]
    tree_seeds = None
    if params.max_features is not None and params.max_features < d:
        assert rng is not None, "max_features requires an rng"
        tree_seeds = np.array([draw_tree_seed(rng)], dtype=np.uint64)
    starts0 = np.array([0, y.shape[0]], dtype=np.intp)
    packed = _grow_classification(
        presort.XT, None, presort.order, starts0,
        y, weights, n_classes, params, tree_seeds,
    )
    return _split_trees(packed, FlatTree)[0]


def fit_flat_forest(
    presort: PresortedMatrix,
    y: np.ndarray,
    n_classes: int,
    params,
    samples: list[np.ndarray],
    tree_seeds: list[int] | None = None,
) -> FlatForest:
    """Fit one classification tree per bootstrap sample, in lockstep.

    Every member's sample becomes a block of one shared instance space —
    one instance per distinct row, weighted by its draw count — so the
    whole ensemble advances level by level through the same vectorized
    scans: the per-level dispatch cost is paid once per forest, not once
    per tree.  Member ``t`` is node-for-node ``build_tree(X[samples[t]],
    y[samples[t]])``.  ``tree_seeds`` must be one ``draw_tree_seed``
    result per member when ``params.max_features`` is active, drawn in
    member order (matching the sequential reference's rng consumption).
    No instance weights (the ensemble callers never combine bootstrap
    with weights).  Returns the members packed into one
    :class:`FlatForest`.
    """
    y = np.asarray(y, dtype=np.int64)
    seeds = (
        np.asarray(tree_seeds, dtype=np.uint64) if tree_seeds is not None else None
    )
    groups = []
    for lo, hi in _sample_groups(samples):
        order0, starts0, row_of_instance, draws = _forest_instance_space(
            presort, samples[lo:hi]
        )
        groups.append(FlatForest(*_grow_classification(
            presort.XT, row_of_instance, order0, starts0,
            y[row_of_instance], None, n_classes, params,
            None if seeds is None else seeds[lo:hi],
            draws_inst=draws,
        )))
    if len(groups) == 1:
        return groups[0]
    return FlatForest.from_trees([tree for group in groups for tree in group])


def fit_flat_regression_tree(
    X: np.ndarray,
    y: np.ndarray,
    max_depth: int,
    min_split: int,
    min_bucket: int,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
    presort: PresortedMatrix | None = None,
) -> FlatRegressionTree:
    """Breadth-first CART regression fit; pre-order ``FlatRegressionTree``
    node-for-node equal to the recursive reference
    (``hpo.surrogate.build_regression_tree_recursive``).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    presort = presort_for(X, presort)
    d = X.shape[1]
    tree_seeds = None
    if max_features is not None and max_features < d:
        assert rng is not None, "max_features requires an rng"
        tree_seeds = np.array([draw_tree_seed(rng)], dtype=np.uint64)
    starts0 = np.array([0, y.shape[0]], dtype=np.intp)
    packed = _grow_regression(
        presort.XT, None, presort.order, starts0,
        y, max_depth, min_split, min_bucket, max_features, tree_seeds,
    )
    return _split_trees(packed, FlatRegressionTree)[0]


def fit_flat_regression_forest(
    presort: PresortedMatrix,
    y: np.ndarray,
    max_depth: int,
    min_split: int,
    min_bucket: int,
    samples: list[np.ndarray],
    max_features: int | None = None,
    tree_seeds: list[int] | None = None,
) -> list[FlatRegressionTree]:
    """Lockstep regression forest (the SMAC surrogate's refit path)."""
    y = np.asarray(y, dtype=np.float64)
    seeds = (
        np.asarray(tree_seeds, dtype=np.uint64) if tree_seeds is not None else None
    )
    out: list[FlatRegressionTree] = []
    for lo, hi in _sample_groups(samples):
        order0, starts0, row_of_instance = _expand_draws(
            *_forest_instance_space(presort, samples[lo:hi])
        )
        packed = _grow_regression(
            presort.XT, row_of_instance, order0, starts0,
            y[row_of_instance], max_depth, min_split, min_bucket, max_features,
            None if seeds is None else seeds[lo:hi],
        )
        out.extend(_split_trees(packed, FlatRegressionTree))
    return out
