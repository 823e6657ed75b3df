"""Presorted breadth-first engine == seed recursive builder, node-for-node.

The engine's contract is exact: same splits, same thresholds, same counts,
same pre-order layout as ``FlatTree.from_node(build_tree(...))`` — across
criteria, instance weights, ``max_features``, ``min_bucket`` edge cases,
bootstrap subsampling, pruning, and the lockstep forest path.  Hypothesis
drives the space; a handful of deterministic tests pin the sharp edges.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers import Bagging, RandomForest
from repro.classifiers.tree import (
    FlatRegressionTree,
    FlatTree,
    PresortedMatrix,
    TreeParams,
    build_tree,
    cost_complexity_prune,
    cost_complexity_prune_flat,
    draw_tree_seed,
    fit_flat_forest,
    fit_flat_regression_tree,
    fit_flat_tree,
    pessimistic_prune,
    pessimistic_prune_flat,
    share_presort,
    shared_presort_for,
)
from repro.evaluation.resampling import bootstrap_indices
from repro.hpo.surrogate import build_regression_tree_recursive


def assert_flat_equal(a, b, payload: str = "counts"):
    for name in ("feature", "threshold", "left", "right", "parent"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert np.array_equal(getattr(a, payload), getattr(b, payload)), payload


def _data(seed, with_ties=True):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 160))
    d = int(rng.integers(1, 7))
    k = int(rng.integers(2, 11))  # k = 2 cumsums one class; k > 7 sums pairwise
    X = rng.normal(size=(n, d))
    if with_ties:
        X[:, 0] = np.round(X[:, 0], 1)  # duplicated values exercise ties
    y = rng.integers(0, k, size=n)
    return X, y, k


# ----------------------------------------------- engine == recursive builder
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    depth=st.integers(min_value=1, max_value=12),
    criterion=st.sampled_from(["gini", "entropy", "gain_ratio"]),
    weighted=st.booleans(),
    subsample_features=st.booleans(),
    min_split=st.integers(min_value=2, max_value=8),
    min_bucket=st.integers(min_value=1, max_value=5),
)
def test_property_engine_matches_recursive(
    seed, depth, criterion, weighted, subsample_features, min_split, min_bucket
):
    X, y, k = _data(seed)
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.1, 5.0, size=y.shape[0]) if weighted else None
    max_features = max(1, X.shape[1] // 2) if subsample_features else None
    params = TreeParams(
        criterion=criterion, max_depth=depth, min_split=min_split,
        min_bucket=min_bucket, max_features=max_features,
    )
    r1 = np.random.default_rng(seed + 1)
    r2 = np.random.default_rng(seed + 1)
    reference = FlatTree.from_node(build_tree(X, y, k, params, rng=r1, weights=weights), k)
    engine = fit_flat_tree(X, y, k, params, rng=r2, weights=weights)
    assert_flat_equal(reference, engine)
    # Both engines consumed the shared rng stream identically.
    assert r1.integers(1 << 30) == r2.integers(1 << 30)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    pruning=st.sampled_from(["cost_complexity", "pessimistic"]),
    strength=st.sampled_from([0.0001, 0.01, 0.05, 0.25, 0.45]),
    criterion=st.sampled_from(["gini", "gain_ratio"]),
)
def test_property_flat_pruning_matches_recursive(seed, pruning, strength, criterion):
    X, y, k = _data(seed)
    params = TreeParams(criterion=criterion, max_depth=10)
    root = build_tree(X, y, k, params)
    flat = fit_flat_tree(X, y, k, params)
    if pruning == "cost_complexity":
        cost_complexity_prune(root, cp=strength)
        pruned = cost_complexity_prune_flat(flat, cp=strength)
    else:
        pessimistic_prune(root, confidence=strength)
        pruned = pessimistic_prune_flat(flat, confidence=strength)
    assert_flat_equal(FlatTree.from_node(root, k), pruned)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    subsample_features=st.booleans(),
)
def test_property_bootstrap_subsample_matches_direct_fit(seed, subsample_features):
    """A presort derived by stable filter == fitting the sampled matrix.

    The reference fits ``X[sample]`` in the *original bootstrap order*;
    the engine fits the canonicalised (ascending, duplicates-adjacent)
    sample via the derived order — the trees must be node-for-node equal.
    """
    X, y, k = _data(seed)
    n = y.shape[0]
    rng = np.random.default_rng(seed + 7)
    sample = rng.integers(0, n, size=n)
    max_features = max(1, X.shape[1] // 2) if subsample_features else None
    params = TreeParams(criterion="gini", max_depth=12, max_features=max_features)
    r1 = np.random.default_rng(seed + 11)
    r2 = np.random.default_rng(seed + 11)
    reference = FlatTree.from_node(
        build_tree(X[sample], y[sample], k, params, rng=r1), k
    )
    presort = PresortedMatrix(X)
    boot, rows = presort.subsample(sample)
    engine = fit_flat_tree(boot.X, y[rows], k, params, rng=r2, presort=boot)
    assert_flat_equal(reference, engine)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_trees=st.integers(min_value=1, max_value=8),
    subsample_features=st.booleans(),
)
def test_property_lockstep_forest_matches_sequential(seed, n_trees, subsample_features):
    X, y, k = _data(seed)
    n = y.shape[0]
    max_features = max(1, X.shape[1] // 2) if subsample_features else None
    params = TreeParams(
        criterion="gini", max_depth=10, min_split=2, min_bucket=1,
        max_features=max_features,
    )
    r1 = np.random.default_rng(seed + 3)
    reference = []
    for _ in range(n_trees):
        sample = bootstrap_indices(n, r1)
        reference.append(
            FlatTree.from_node(build_tree(X[sample], y[sample], k, params, rng=r1), k)
        )
    r2 = np.random.default_rng(seed + 3)
    presort = PresortedMatrix(X)
    samples, seeds = [], []
    subsampling = max_features is not None and max_features < X.shape[1]
    for _ in range(n_trees):
        samples.append(bootstrap_indices(n, r2))
        if subsampling:
            seeds.append(draw_tree_seed(r2))
    engine = fit_flat_forest(
        presort, y, k, params, samples, tree_seeds=seeds if subsampling else None
    )
    assert len(engine) == n_trees
    for a, b in zip(reference, engine):
        assert_flat_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    depth=st.integers(min_value=1, max_value=12),
    subsample_features=st.booleans(),
)
def test_property_regression_engine_matches_recursive(seed, depth, subsample_features):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 160))
    d = int(rng.integers(1, 7))
    X = rng.normal(size=(n, d))
    X[:, 0] = np.round(X[:, 0], 1)
    y = rng.normal(size=n)
    max_features = max(1, int(np.ceil(d * 0.7))) if subsample_features else None
    r1 = np.random.default_rng(seed + 5)
    r2 = np.random.default_rng(seed + 5)
    reference = FlatRegressionTree.from_node(
        build_regression_tree_recursive(
            X, y, max_depth=depth, min_split=4, min_bucket=2,
            max_features=max_features, rng=r1,
        )
    )
    engine = fit_flat_regression_tree(
        X, y, max_depth=depth, min_split=4, min_bucket=2,
        max_features=max_features, rng=r2,
    )
    assert_flat_equal(reference, engine, payload="values")


# --------------------------------------------------------------- edge cases
def test_single_instance_is_a_leaf():
    flat = fit_flat_tree(np.zeros((1, 2)), np.zeros(1, dtype=np.int64), 2, TreeParams())
    assert flat.n_nodes == 1 and flat.feature[0] == -1


def test_pure_node_not_split():
    X = np.arange(10, dtype=float).reshape(-1, 1)
    flat = fit_flat_tree(X, np.zeros(10, dtype=np.int64), 2, TreeParams())
    assert flat.n_nodes == 1


def test_constant_features_yield_leaf():
    X = np.ones((20, 3))
    y = np.tile([0, 1], 10).astype(np.int64)
    flat = fit_flat_tree(X, y, 2, TreeParams())
    assert flat.n_nodes == 1


def test_min_bucket_larger_than_half_blocks_splits():
    X, y, k = _data(5)
    params = TreeParams(min_bucket=y.shape[0])
    reference = FlatTree.from_node(build_tree(X, y, k, params), k)
    assert_flat_equal(reference, fit_flat_tree(X, y, k, params))


def test_min_impurity_decrease_matches_reference():
    X, y, k = _data(9)
    params = TreeParams(criterion="entropy", max_depth=8, min_impurity_decrease=0.05)
    reference = FlatTree.from_node(build_tree(X, y, k, params), k)
    assert_flat_equal(reference, fit_flat_tree(X, y, k, params))


def test_take_columns_presort_matches_direct():
    X, y, k = _data(12)
    if X.shape[1] < 2:
        return
    cols = np.array([X.shape[1] - 1, 0])
    params = TreeParams(criterion="gain_ratio", max_depth=8)
    reference = FlatTree.from_node(build_tree(X[:, cols], y, k, params), k)
    sub = PresortedMatrix(X).take_columns(cols)
    assert_flat_equal(reference, fit_flat_tree(sub.X, y, k, params, presort=sub))


# ---------------------------------------------------------- shared registry
def test_shared_presort_reused_and_released():
    X = np.random.default_rng(0).normal(size=(40, 3))
    handle = share_presort(X)
    assert shared_presort_for(X) is handle.presort()
    assert share_presort(X) is handle  # same registration, same handle
    y = np.random.default_rng(1).integers(0, 2, size=40)
    via_registry = fit_flat_tree(X, y, 2, TreeParams(max_depth=4))
    fresh = fit_flat_tree(X, y, 2, TreeParams(max_depth=4), presort=PresortedMatrix(X))
    assert_flat_equal(via_registry, fresh)
    del handle
    assert shared_presort_for(X) is None  # weak registry released the entry


def test_objective_registers_fold_presorts():
    from repro.classifiers import RPart
    from repro.hpo.objective import CrossValObjective

    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 2, size=60)
    objective = CrossValObjective(lambda c: RPart(**c), X, y, n_classes=2, n_folds=2)
    for fold_X, _, _, _ in objective._fold_data:
        assert shared_presort_for(fold_X) is not None


# ------------------------------------------------- ensembles stay identical
@pytest.mark.parametrize("klass,kwargs", [
    (RandomForest, dict(ntree=12, seed=5)),
    (Bagging, dict(nbagg=6, seed=5)),
])
def test_ensembles_match_recursive_composition(klass, kwargs):
    rng = np.random.default_rng(21)
    X = rng.normal(size=(120, 5))
    y = rng.integers(0, 3, size=120)
    model = klass(**kwargs).fit(X, y)

    tree_rng = np.random.default_rng(5)
    if klass is RandomForest:
        params = TreeParams(criterion="gini", max_depth=40, min_split=2, min_bucket=1,
                            max_features=max(1, int(np.sqrt(5))))
        n_members = kwargs["ntree"]
    else:
        params = TreeParams(criterion="gini", max_depth=30, min_split=20, min_bucket=7)
        n_members = kwargs["nbagg"]
    for i in range(n_members):
        sample = bootstrap_indices(120, tree_rng)
        root = build_tree(
            X[sample], y[sample], 3, params,
            rng=tree_rng if klass is RandomForest else None,
        )
        if klass is Bagging:
            cost_complexity_prune(root, 0.01)
        assert_flat_equal(FlatTree.from_node(root, 3), model.trees_[i])
