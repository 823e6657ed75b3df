"""Unit + property tests for the shared decision-tree engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers.tree import (
    TreeParams,
    build_tree,
    children_impurity,
    cost_complexity_prune,
    count_leaves,
    entropy,
    gain_ratio,
    gini,
    iter_nodes,
    pessimistic_prune,
    subtree_error,
    tree_apply,
    tree_depth,
    tree_predict_proba,
)
from repro.classifiers.tree.criteria import children_impurity_class_major


# ----------------------------------------------------------------- criteria
def test_gini_pure_is_zero():
    assert gini(np.array([[10.0, 0.0]]))[0] == pytest.approx(0.0)


def test_gini_uniform_is_max():
    assert gini(np.array([[5.0, 5.0]]))[0] == pytest.approx(0.5)
    assert gini(np.array([[2.0, 2.0, 2.0, 2.0]]))[0] == pytest.approx(0.75)


def test_entropy_pure_and_uniform():
    assert entropy(np.array([[8.0, 0.0]]))[0] == pytest.approx(0.0)
    assert entropy(np.array([[4.0, 4.0]]))[0] == pytest.approx(1.0)


def test_empty_counts_zero_impurity():
    assert gini(np.array([[0.0, 0.0]]))[0] == pytest.approx(0.0)
    assert entropy(np.array([[0.0, 0.0]]))[0] == pytest.approx(0.0)


def test_children_impurity_prefers_clean_split():
    clean_left = np.array([[10.0, 0.0]])
    clean_right = np.array([[0.0, 10.0]])
    messy_left = np.array([[5.0, 5.0]])
    messy_right = np.array([[5.0, 5.0]])
    for criterion in ("gini", "entropy", "gain_ratio"):
        good = children_impurity(clean_left, clean_right, criterion)[0]
        bad = children_impurity(messy_left, messy_right, criterion)[0]
        assert good < bad


def _segmented_prefix_counts(rng, k, draws, n_columns=3):
    """Per-node prefix class counts of a few nodes, as a level scan sees them.

    Returns trailing-axis ``left`` (m, C, k) and node ``totals`` (m, k) per
    position, with ``n_left`` (m, 1) positions for unit weights or (m, C)
    cumsummed draw counts.
    """
    lefts, totals, n_lefts = [], [], []
    for size in rng.integers(2, 40, size=4):
        y = rng.integers(0, k, size=size)
        w = rng.integers(1, 6, size=size).astype(float) if draws else np.ones(size)
        order = np.argsort(rng.random((size, n_columns)), axis=0)   # column orders
        onehot = np.zeros((size, n_columns, k))
        onehot[np.arange(size)[:, None], np.arange(n_columns), y[order]] = w[order]
        lefts.append(np.cumsum(onehot, axis=0))
        totals.append(np.repeat(np.bincount(y, weights=w, minlength=k)[None], size, axis=0))
        n_lefts.append(np.cumsum(w[order], axis=0) if draws else np.arange(1.0, size + 1)[:, None])
    return np.concatenate(lefts), np.concatenate(totals), np.concatenate(n_lefts)


@pytest.mark.parametrize("draws", [False, True])
@pytest.mark.parametrize("k", range(2, 11))
@pytest.mark.parametrize("criterion", ["gini", "entropy", "gain_ratio"])
def test_class_major_scorer_matches_children_impurity_bitwise(criterion, k, draws):
    rng = np.random.default_rng(100 * k + draws)
    left, totals, n_left = _segmented_prefix_counts(rng, k, draws)
    m, n_columns = left.shape[:2]
    node_total = totals.sum(axis=1)[:, None]
    n_right = node_total - n_left
    parent = (gini if criterion == "gini" else entropy)(totals)[:, None]
    right = totals[:, None, :] - left
    expected = children_impurity(
        left.reshape(-1, k), right.reshape(-1, k), criterion,
        np.broadcast_to(parent, (m, n_columns)).reshape(-1),
    ).reshape(m, n_columns)

    class_major = np.ascontiguousarray(np.moveaxis(left, -1, 0))
    class_major[k - 1] = np.nan  # scratch row: the scorer derives the last class
    got = children_impurity_class_major(
        class_major, totals.T[:, :, None], n_left, n_right, node_total,
        criterion, parent,
    )
    # Every position with both children non-empty: all but the segment ends.
    scored = np.broadcast_to((n_left >= 1) & (n_right >= 1), (m, n_columns))
    assert scored.sum() == m * n_columns - 4 * n_columns
    assert np.array_equal(got[scored].view(np.uint64), expected[scored].view(np.uint64))


def test_gain_ratio_penalises_unbalanced_splits():
    # Same information gain structure, different split balance.
    balanced = gain_ratio(np.array([[5.0, 0.0]]), np.array([[0.0, 5.0]]))[0]
    lopsided = gain_ratio(np.array([[1.0, 0.0]]), np.array([[4.0, 5.0]]))[0]
    assert balanced > lopsided


# ------------------------------------------------------------------ builder
def _xor_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.int64)
    return X, y


def test_tree_learns_xor():
    X, y = _xor_data()
    root = build_tree(X, y, 2, TreeParams(max_depth=4))
    proba = tree_predict_proba(root, X, 2)
    assert (np.argmax(proba, axis=1) == y).mean() > 0.95


def test_max_depth_respected():
    X, y = _xor_data()
    root = build_tree(X, y, 2, TreeParams(max_depth=2))
    assert tree_depth(root) <= 2


def test_min_bucket_respected():
    X, y = _xor_data()
    root = build_tree(X, y, 2, TreeParams(min_bucket=20))
    for node in iter_nodes(root):
        if node.is_leaf:
            assert node.n >= 20


def test_pure_node_not_split():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    y = np.zeros(10, dtype=np.int64)
    root = build_tree(X, y, 2, TreeParams())
    assert root.is_leaf


def test_constant_features_yield_leaf():
    X = np.ones((20, 3))
    y = np.tile([0, 1], 10).astype(np.int64)
    root = build_tree(X, y, 2, TreeParams())
    assert root.is_leaf


def test_weights_shift_majority():
    X = np.zeros((10, 1))
    y = np.array([0] * 6 + [1] * 4, dtype=np.int64)
    weights = np.array([1.0] * 6 + [10.0] * 4)
    root = build_tree(X, y, 2, TreeParams(), weights=weights)
    assert root.prediction == 1


def test_feature_subsampling_uses_rng():
    X, y = _xor_data(seed=3)
    rng = np.random.default_rng(0)
    root = build_tree(X, y, 2, TreeParams(max_features=1), rng=rng)
    assert count_leaves(root) >= 1  # just must not crash and stay valid


def test_apply_routes_all_rows():
    X, y = _xor_data()
    root = build_tree(X, y, 2, TreeParams(max_depth=3))
    leaves = tree_apply(root, X)
    assert len(leaves) == X.shape[0]
    assert all(leaf.is_leaf for leaf in leaves)


def test_proba_rows_normalised():
    X, y = _xor_data()
    root = build_tree(X, y, 2, TreeParams(max_depth=3))
    proba = tree_predict_proba(root, X, 2)
    assert np.allclose(proba.sum(axis=1), 1.0)


# ------------------------------------------------------------------ pruning
def test_cost_complexity_prunes_noise_splits():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(150, 3))
    y = rng.integers(0, 2, size=150)  # pure noise
    full = build_tree(X, y, 2, TreeParams(max_depth=10))
    pruned = build_tree(X, y, 2, TreeParams(max_depth=10))
    cost_complexity_prune(pruned, cp=0.05)
    assert count_leaves(pruned) < count_leaves(full)


def test_cost_complexity_cp_zero_noop():
    X, y = _xor_data()
    root = build_tree(X, y, 2, TreeParams(max_depth=4))
    before = count_leaves(root)
    cost_complexity_prune(root, cp=0.0)
    assert count_leaves(root) == before


def test_cost_complexity_keeps_real_structure():
    X, y = _xor_data(n=400)
    root = build_tree(X, y, 2, TreeParams(max_depth=6))
    cost_complexity_prune(root, cp=0.01)
    proba = tree_predict_proba(root, X, 2)
    assert (np.argmax(proba, axis=1) == y).mean() > 0.9


def test_pessimistic_prunes_noise():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(150, 3))
    y = rng.integers(0, 2, size=150)
    # gini keeps splitting noise all the way to purity, so the grown tree
    # badly overfits and error-based pruning must collapse parts of it.
    full = build_tree(X, y, 2, TreeParams(max_depth=12, criterion="gini"))
    before = count_leaves(full)
    pessimistic_prune(full, confidence=0.25)
    assert count_leaves(full) < before


def test_pessimistic_lower_confidence_prunes_more():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(200, 4))
    y = (X[:, 0] > 0).astype(np.int64)
    flip = rng.random(200) < 0.25
    y[flip] = 1 - y[flip]

    gentle = build_tree(X, y, 2, TreeParams(max_depth=12, criterion="gain_ratio"))
    harsh = build_tree(X, y, 2, TreeParams(max_depth=12, criterion="gain_ratio"))
    pessimistic_prune(gentle, confidence=0.45)
    pessimistic_prune(harsh, confidence=0.01)
    assert count_leaves(harsh) <= count_leaves(gentle)


def test_subtree_error_zero_on_separable():
    X, y = _xor_data()
    root = build_tree(X, y, 2, TreeParams(max_depth=8))
    assert subtree_error(root) <= 2  # essentially separable


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=5000),
    depth=st.integers(min_value=1, max_value=6),
)
def test_property_tree_predictions_valid(seed, depth):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(60, 3))
    y = rng.integers(0, 3, size=60)
    root = build_tree(X, y, 3, TreeParams(max_depth=depth))
    proba = tree_predict_proba(root, X, 3)
    assert proba.shape == (60, 3)
    assert np.allclose(proba.sum(axis=1), 1.0)
    assert tree_depth(root) <= depth


def test_ndtri_is_scipy_stats_norm_ppf_bit_for_bit():
    # Pessimistic pruning takes its z from scipy.special.ndtri so that
    # scipy.stats stays off the import path; scipy.stats.norm is the oracle.
    from scipy import stats
    from scipy.special import ndtri

    q = np.concatenate([
        np.linspace(0.0, 1.0, 100_001),
        np.logspace(-300, -1, 2000),
        1.0 - np.logspace(-16, -1, 2000),
    ])
    got, expected = ndtri(q), stats.norm.ppf(q)
    assert got.tobytes() == expected.tobytes()
    assert np.isinf(got[[0, 100_000]]).all()  # the 0 and 1 tails
