"""Forest engine: multiplicity-weighted lockstep growth and packed prediction.

``fit_flat_forest`` grows every bootstrap member on its *distinct* sampled
rows, each weighted by its draw count; members must still equal the
recursive reference ``build_tree(X[s], y[s])`` node for node.  Fitted
forests are stored packed (:class:`FlatForest`), and the one-traversal
``predict_proba`` must equal the per-tree sum bit for bit.
"""

import copy
import marshal
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers import Bagging, RandomForest
from repro.classifiers.tree import (
    FlatForest,
    FlatRegressionTree,
    FlatTree,
    PresortedMatrix,
    TreeParams,
    build_tree,
    cost_complexity_prune,
    draw_tree_seed,
    fit_flat_forest,
    fit_flat_regression_forest,
)
from repro.classifiers.tree import flat as flat_mod
from repro.classifiers.tree import presort as presort_mod
from repro.classifiers.tree.criteria import _sum_classes
from repro.core.result import SmartMLResult
from repro.data import SyntheticSpec, make_dataset
from repro.evaluation.resampling import bootstrap_indices
from repro.hpo.surrogate import build_regression_tree_recursive
from repro.preprocess import Imputer, Pipeline
from repro.serving import ModelRegistry, decode_state, encode_state


def assert_flat_equal(a, b):
    for name in ("feature", "threshold", "left", "right", "parent", "counts"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _data(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 120))
    d = int(rng.integers(1, 7))
    k = int(rng.integers(2, 11))  # k = 2 cumsums one class; k > 7 sums pairwise
    X = rng.normal(size=(n, d))
    X[:, 0] = np.round(X[:, 0], 1)  # ties inside and across draw runs
    y = rng.integers(0, k, size=n)
    return X, y, k


def _per_tree_proba(forest: FlatForest, X: np.ndarray) -> np.ndarray:
    """The per-tree reference: sum member probabilities from zeros."""
    total = np.zeros((X.shape[0], forest.n_classes))
    for tree in forest:
        total += tree.predict_proba(X)
    total /= len(forest)
    return total


# ------------------------------------------------ members == build_tree
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_trees=st.integers(min_value=1, max_value=6),
    criterion=st.sampled_from(["gini", "entropy", "gain_ratio"]),
    nodesize=st.integers(min_value=1, max_value=15),
    subsample_features=st.booleans(),
    duplicate_heavy=st.booleans(),
)
def test_property_forest_members_match_build_tree(
    seed, n_trees, criterion, nodesize, subsample_features, duplicate_heavy
):
    X, y, k = _data(seed)
    n = y.shape[0]
    max_features = max(1, X.shape[1] // 2) if subsample_features else None
    params = TreeParams(
        criterion=criterion, max_depth=12, min_split=max(2, 2 * nodesize),
        min_bucket=nodesize, max_features=max_features,
    )
    rng = np.random.default_rng(seed + 1)
    subsampling = max_features is not None and max_features < X.shape[1]
    samples, seeds = [], []
    for _ in range(n_trees):
        if duplicate_heavy:
            # Few distinct rows, each drawn many times.
            pool = rng.choice(n, size=max(1, n // 8), replace=False)
            samples.append(rng.choice(pool, size=n))
        else:
            samples.append(rng.integers(0, n, size=n))
        seeds.append(draw_tree_seed(rng) if subsampling else None)

    forest = fit_flat_forest(
        PresortedMatrix(X), y, k, params, samples,
        tree_seeds=seeds if subsampling else None,
    )
    assert isinstance(forest, FlatForest) and len(forest) == n_trees
    for sample, tree_seed, member in zip(samples, seeds, forest):
        # A fresh rng whose one draw is this member's tree seed.
        tree_rng = _SeedReplay(tree_seed) if subsampling else None
        reference = build_tree(X[sample], y[sample], k, params, rng=tree_rng)
        assert_flat_equal(FlatTree.from_node(reference, k), member)


class _SeedReplay:
    """Stands in for the rng of a ``max_features`` fit: replays one draw."""

    def __init__(self, value: int):
        self.value = value

    def integers(self, low, high):
        assert low <= self.value < high
        return self.value


# ------------------------------------- frontier choice: sort vs partition
def _mtry_choices(d):
    """``max_features`` at 1, either side of ``d / 2`` and ``d - 1``."""
    return sorted({max(1, m) for m in (1, d // 2, d // 2 + 1, d - 1)})


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_trees=st.integers(min_value=1, max_value=6),
    d=st.integers(min_value=2, max_value=9),
    mtry_pick=st.integers(min_value=0, max_value=3),
    nodesize=st.integers(min_value=1, max_value=15),
    tie_heavy=st.booleans(),
    group_rows=st.sampled_from([None, 40]),
    rank_share=st.sampled_from([0.0, 1.0]),
)
def test_property_forest_members_match_build_tree_across_frontier_cut(
    seed, n_trees, d, mtry_pick, nodesize, tie_heavy, group_rows, rank_share
):
    # _RANK_FRONTIER_SHARE 0.0 forces the partition frontier and 1.0 the
    # rank frontier; on either, every member is build_tree(X[s], y[s]).
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 90))
    k = int(rng.integers(2, 11))  # k = 2 cumsums one class; k > 7 sums pairwise
    if tie_heavy:
        X = rng.integers(0, 4, size=(n, d)).astype(np.float64)
    else:
        X = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    choices = _mtry_choices(d)
    max_features = choices[mtry_pick % len(choices)]
    params = TreeParams(
        criterion="gini", max_depth=40, min_split=max(2, 2 * nodesize),
        min_bucket=nodesize, max_features=max_features,
    )
    subsampling = max_features < d
    samples, seeds = [], []
    for _ in range(n_trees):
        samples.append(bootstrap_indices(n, rng))
        seeds.append(draw_tree_seed(rng) if subsampling else None)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(presort_mod, "_RANK_FRONTIER_SHARE", rank_share)
        if group_rows is not None:
            # Several lockstep groups, each on its own frontier.
            patch.setattr(presort_mod, "_LOCKSTEP_INSTANCES", group_rows)
        forest = fit_flat_forest(
            PresortedMatrix(X), y, k, params, samples,
            tree_seeds=seeds if subsampling else None,
        )
    assert len(forest) == n_trees
    for sample, tree_seed, member in zip(samples, seeds, forest):
        tree_rng = _SeedReplay(tree_seed) if subsampling else None
        reference = build_tree(X[sample], y[sample], k, params, rng=tree_rng)
        assert_flat_equal(FlatTree.from_node(reference, k), member)


@pytest.mark.parametrize("seed", range(6))
def test_rank_frontier_column_orders_equal_partitioned_orders(seed):
    # Drive both frontiers through the same random splits: at every level
    # the sorted rank keys must give exactly the partitioned column orders,
    # for all columns and for per-node candidate sets of a node subset.
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(20, 120)), int(rng.integers(2, 8))
    X = rng.integers(0, 5, size=(n, d)).astype(np.float64)  # tie-heavy
    presort = PresortedMatrix(X)
    samples = [bootstrap_indices(n, rng) for _ in range(int(rng.integers(1, 5)))]
    space = presort_mod._forest_draws(n, samples)
    partitioned = presort_mod._PartitionFrontier(
        presort_mod._forest_order(presort, space), space.starts
    )
    ranked = presort_mod._RankFrontier(
        presort.order, space.row_of_instance, space.starts
    )
    levels = 0
    while partitioned.sizes.size:
        assert np.array_equal(partitioned.starts, ranked.starts)
        assert np.array_equal(partitioned.instance_ids(), ranked.instance_ids())
        node_of_pos = partitioned.node_of_position()
        assert np.array_equal(node_of_pos, ranked.node_of_position())
        everything = np.arange(node_of_pos.size, dtype=np.intp)
        expected = partitioned.order[:d].T
        assert np.array_equal(
            partitioned.column_order(slice(0, d), everything, node_of_pos), expected
        )
        every_column = np.broadcast_to(np.arange(d), expected.shape)
        assert np.array_equal(
            ranked.column_order(every_column, everything, node_of_pos), expected
        )

        # A subset of nodes, each with its own candidate columns.
        n_front = partitioned.sizes.size
        chosen = np.flatnonzero(rng.random(n_front) < 0.6)
        if chosen.size:
            flag = np.zeros(n_front, dtype=bool)
            flag[chosen] = True
            pos_sel = np.flatnonzero(flag[node_of_pos])
            local = np.repeat(np.arange(chosen.size), partitioned.sizes[chosen])
            cand = np.stack([rng.permutation(d)[:2] for _ in chosen])[local]
            assert np.array_equal(partitioned.column_order(cand, pos_sel, local),
                                  ranked.column_order(cand, pos_sel, local))

        # Split every node of two or more instances, both children nonempty.
        splitting = np.flatnonzero(partitioned.sizes >= 2)
        if not splitting.size:
            break
        go_left = rng.random(partitioned.n_instances) < 0.5
        ids = partitioned.instance_ids()
        first = partitioned.starts[splitting]
        go_left[ids[first]] = True
        go_left[ids[first + 1]] = False
        n_left = np.bincount(node_of_pos, weights=go_left[ids],
                             minlength=n_front).astype(np.intp)
        child_sizes = np.empty(2 * splitting.size, dtype=np.intp)
        child_sizes[0::2] = n_left[splitting]
        child_sizes[1::2] = partitioned.sizes[splitting] - n_left[splitting]
        for frontier in (partitioned, ranked):
            frontier.partition(splitting, go_left, child_sizes, node_of_pos)
        levels += 1
    assert levels >= 2


def test_rank_keys_fall_back_to_argsort_past_63_packed_bits():
    # The rank frontier sorts keys with the instance ids packed into their
    # low bits.  Segment offsets past int32 still pack; past 63 packed bits
    # it argsorts the int64 keys instead.  Both must give the partition
    # frontier's orders.
    rng = np.random.default_rng(3)
    n, d = 97, 4
    presort = PresortedMatrix(rng.normal(size=(n, d)))
    space = presort_mod._forest_draws(n, [bootstrap_indices(n, rng) for _ in range(2)])
    partitioned = presort_mod._PartitionFrontier(
        presort_mod._forest_order(presort, space), space.starts
    )
    ranked = presort_mod._RankFrontier(presort.order, space.row_of_instance, space.starts)
    node_of_pos = partitioned.node_of_position()
    everything = np.arange(node_of_pos.size, dtype=np.intp)
    cand = np.broadcast_to(np.array([2, 0]), (everything.size, 2))
    bits = (ranked.n_instances - 1).bit_length()
    for offset, packs in [(np.iinfo(np.int32).max // n, True), ((1 << (63 - bits)) // n, False)]:
        seg = node_of_pos + offset
        assert (seg[-1] + 1) * n > np.iinfo(np.int32).max
        assert (((int(seg[-1]) + 1) * n) << bits <= 1 << 63) == packs
        assert np.array_equal(ranked.column_order(cand, everything, seg),
                              partitioned.column_order(cand, everything, seg))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    nbagg=st.integers(min_value=1, max_value=6),
    minbucket=st.integers(min_value=1, max_value=10),
    cp=st.sampled_from([0.0, 0.001, 0.01, 0.05]),
)
def test_property_bagging_pruned_members_match_reference(seed, nbagg, minbucket, cp):
    X, y, k = _data(seed)
    n = y.shape[0]
    model = Bagging(
        nbagg=nbagg, minsplit=2 * minbucket, minbucket=minbucket, cp=cp, seed=seed
    ).fit(X, y, n_classes=k)
    assert isinstance(model.trees_, FlatForest)

    rng = np.random.default_rng(seed)
    params = TreeParams(
        criterion="gini", max_depth=30, min_split=max(2, 2 * minbucket),
        min_bucket=minbucket,
    )
    for i in range(nbagg):
        sample = bootstrap_indices(n, rng)
        root = build_tree(X[sample], y[sample], k, params)
        cost_complexity_prune(root, cp)
        assert_flat_equal(FlatTree.from_node(root, k), model.trees_[i])


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_trees=st.integers(min_value=1, max_value=5),
    subsample_features=st.booleans(),
)
def test_property_regression_forest_members_match_reference(
    seed, n_trees, subsample_features
):
    # The regression forest grows on the expanded sample (ascending rows,
    # duplicates adjacent): its node means are float sums over copies.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 80))
    d = int(rng.integers(1, 6))
    X = rng.normal(size=(n, d))
    X[:, 0] = np.round(X[:, 0], 1)
    y = rng.normal(size=n)
    max_features = max(1, int(np.ceil(d * 0.7))) if subsample_features else None
    subsampling = max_features is not None and max_features < d
    samples = [rng.integers(0, n, size=n) for _ in range(n_trees)]
    seeds = [draw_tree_seed(rng) for _ in range(n_trees)]
    forest = fit_flat_regression_forest(
        PresortedMatrix(X), y, max_depth=8, min_split=4, min_bucket=2,
        samples=samples, max_features=max_features,
        tree_seeds=seeds if subsampling else None,
    )
    for sample, tree_seed, member in zip(samples, seeds, forest):
        rows = np.sort(sample)
        reference = build_regression_tree_recursive(
            X[rows], y[rows], max_depth=8, min_split=4, min_bucket=2,
            max_features=max_features,
            rng=_SeedReplay(tree_seed) if subsampling else None,
        )
        reference = FlatRegressionTree.from_node(reference)
        for name in ("feature", "threshold", "left", "right", "parent", "values"):
            assert np.array_equal(getattr(reference, name), getattr(member, name)), name


# --------------------------------------------- packed predict == per-tree
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    family=st.sampled_from(["random_forest", "bagging"]),
    n_rows=st.integers(min_value=1, max_value=40),
    max_depth=st.sampled_from([1, 3, 40]),
)
def test_property_packed_predict_matches_per_tree_sum(seed, family, n_rows, max_depth):
    X, y, k = _data(seed)
    if family == "random_forest":
        model = RandomForest(ntree=1 + seed % 9, nodesize=1 + seed % 4, seed=seed)
    else:
        model = Bagging(nbagg=1 + seed % 5, minsplit=2, minbucket=1,
                        maxdepth=max_depth, seed=seed)
    model.fit(X, y, n_classes=k)
    Xt = np.random.default_rng(seed + 2).normal(size=(n_rows, X.shape[1]))
    got = model.predict_proba(Xt)
    assert np.array_equal(got, _per_tree_proba(model.trees_, Xt))


def test_stump_forests_and_single_rows():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(60, 3))
    y = rng.integers(0, 3, size=60)
    params = TreeParams(criterion="gini", max_depth=1)
    samples = [bootstrap_indices(60, rng) for _ in range(7)]
    stumps = fit_flat_forest(PresortedMatrix(X), y, 3, params, samples)
    assert all(tree.n_nodes <= 3 for tree in stumps)
    leaves = fit_flat_forest(
        PresortedMatrix(X), y, 3, TreeParams(max_depth=0), samples
    )
    assert all(tree.n_nodes == 1 for tree in leaves)
    for forest in (stumps, leaves):
        for rows in (X[:1], X[5:6], X):
            assert np.array_equal(
                forest.predict_proba(rows), _per_tree_proba(forest, rows)
            )


def test_large_batches_route_in_row_blocks():
    # More (tree, row) pairs than one traversal block: results must not
    # depend on where the row blocks are cut.
    rng = np.random.default_rng(8)
    X = rng.normal(size=(200, 4))
    y = rng.integers(0, 2, size=200)
    model = RandomForest(ntree=70, seed=3).fit(X, y)
    Xt = rng.normal(size=(1500, 4))
    full = model.predict_proba(Xt)
    assert np.array_equal(full, _per_tree_proba(model.trees_, Xt))
    assert np.array_equal(full[700:701], model.predict_proba(Xt[700:701]))


@pytest.mark.parametrize("pairs", [1, 20, 100, 200, 1 << 16])
def test_blocks_cut_anywhere_predict_the_same_bits(pairs, monkeypatch):
    # 37 rows x 13 trees: single pairs, one tree over row blocks, runs of
    # 2 and 5 trees (ragged last run) and one block: the running sum must
    # stay in tree order wherever the blocks are cut.
    rng = np.random.default_rng(9)
    X = rng.normal(size=(120, 5))
    y = rng.integers(0, 3, size=120)
    model = RandomForest(ntree=13, nodesize=2, seed=6).fit(X, y)
    Xt = rng.normal(size=(37, 5))
    expected = _per_tree_proba(model.trees_, Xt)
    monkeypatch.setattr(flat_mod, "_FOREST_PAIRS", pairs)
    got = model.predict_proba(Xt)
    assert np.array_equal(expected.view(np.uint64), got.view(np.uint64))
    assert model.predict_proba(Xt[:0]).shape == (0, 3)


def test_from_trees_round_trips_members():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(80, 4))
    y = rng.integers(0, 3, size=80)
    forest = RandomForest(ntree=9, seed=1).fit(X, y).trees_
    repacked = FlatForest.from_trees(list(forest))
    for name in ("feature", "threshold", "left", "right", "counts", "offsets"):
        assert np.array_equal(getattr(forest, name), getattr(repacked, name)), name
    assert forest[-1].n_nodes == forest[len(forest) - 1].n_nodes
    with pytest.raises(IndexError):
        forest[len(forest)]


def test_multi_group_forest_matches_sequential(monkeypatch):
    # Shrink the lockstep group so the forest is grown in several groups
    # whose node tables are concatenated.
    rng = np.random.default_rng(6)
    X = rng.normal(size=(50, 3))
    y = rng.integers(0, 2, size=50)
    samples = [bootstrap_indices(50, rng) for _ in range(5)]
    params = TreeParams(criterion="gini", max_depth=6)
    whole = fit_flat_forest(PresortedMatrix(X), y, 2, params, samples)
    monkeypatch.setattr(presort_mod, "_LOCKSTEP_INSTANCES", 60)
    grouped = fit_flat_forest(PresortedMatrix(X), y, 2, params, samples)
    for name in ("feature", "threshold", "left", "right", "counts", "offsets"):
        assert np.array_equal(getattr(whole, name), getattr(grouped, name)), name


# --------------------------------------------------------------- registry
@pytest.mark.parametrize("klass,kwargs", [
    (RandomForest, dict(ntree=25, nodesize=3, seed=2)),
    (Bagging, dict(nbagg=8, seed=2)),
])
def test_forest_snapshot_roundtrip_and_size(klass, kwargs):
    rng = np.random.default_rng(10)
    X = rng.normal(size=(150, 6))
    y = rng.integers(0, 3, size=150)
    Xt = rng.normal(size=(30, 6))
    model = klass(**kwargs).fit(X, y)

    blob = marshal.dumps(encode_state(model))
    restored = decode_state(marshal.loads(blob))
    assert np.array_equal(model.predict_proba(Xt), restored.predict_proba(Xt))

    # The per-tree list layout forests were stored in before packing.
    per_tree = copy.copy(model)
    per_tree.trees_ = list(model.trees_)
    legacy_blob = marshal.dumps(encode_state(per_tree))
    assert len(blob) <= len(legacy_blob)

    # A snapshot in that layout is packed on load and predicts the same bits.
    for legacy in (decode_state(marshal.loads(legacy_blob)),
                   pickle.loads(pickle.dumps(per_tree))):
        assert isinstance(legacy.trees_, FlatForest)
        for name in ("feature", "threshold", "left", "right", "counts", "offsets"):
            assert np.array_equal(getattr(legacy.trees_, name),
                                  getattr(model.trees_, name)), name
        assert np.array_equal(model.predict_proba(Xt).view(np.uint64),
                              legacy.predict_proba(Xt).view(np.uint64))


@pytest.mark.parametrize("klass,kwargs", [
    (RandomForest, dict(ntree=12, nodesize=2, seed=4)),
    (Bagging, dict(nbagg=6, seed=4)),
])
def test_legacy_forest_snapshot_loads_from_registry(klass, kwargs, tmp_path):
    train = make_dataset(SyntheticSpec(name="legacy-forest", n_instances=120,
                                       n_features=5, n_classes=3, seed=8))
    fresh = make_dataset(SyntheticSpec(name="legacy-fresh", n_instances=40,
                                       n_features=5, n_classes=3, seed=9))
    pipeline = Pipeline([Imputer()])
    prepared = pipeline.fit_transform(train)
    model = klass(**kwargs).fit(prepared.X, prepared.y, n_classes=train.n_classes)
    expected = model.predict_proba(pipeline.transform(fresh).X)

    # Register the model as the build before packing stored it: a list of
    # per-tree FlatTree objects.
    legacy = copy.copy(model)
    legacy.trees_ = list(model.trees_)
    result = SmartMLResult(
        dataset_name=train.name, best_algorithm=klass.name, best_config=kwargs,
        validation_accuracy=0.0, model=legacy, pipeline=pipeline,
    )
    ModelRegistry(tmp_path / "reg").register("legacy", result, dataset=train)

    reloaded = ModelRegistry(tmp_path / "reg").load("legacy")
    assert isinstance(reloaded.model.trees_, FlatForest)
    got = reloaded.predict_rows(fresh.X, proba=True)
    assert np.array_equal(expected.view(np.uint64), got.view(np.uint64))


# ------------------------------------------------------------------- gini
@pytest.mark.parametrize("k", range(1, 11))
def test_sum_classes_matches_reduction_bitwise(k):
    # _sum_classes takes the classes leading; its bits must be those of
    # the trailing-axis reduction of a C-contiguous array, whatever the
    # class-major input's memory layout.
    rng = np.random.default_rng(k)
    for shape in [(1,), (257,), (40, 9)]:
        p = rng.random(shape + (k,)) ** 3 * 10.0 ** rng.uniform(-6, 6, size=shape + (k,))
        expected = p.sum(axis=-1).view(np.uint64)
        class_major = np.ascontiguousarray(np.moveaxis(p, -1, 0))
        for arr in (p, np.asfortranarray(p)):
            assert np.array_equal(_sum_classes(np.moveaxis(arr, -1, 0)).view(np.uint64), expected)
        assert np.array_equal(_sum_classes(class_major).view(np.uint64), expected)
