"""Unit tests for dataset similarity and algorithm nomination."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kb import (
    Neighbor,
    SimilarityIndex,
    distance_only_nomination,
    nearest_datasets,
    weighted_nomination,
    zscore_normaliser,
)


def test_zscore_normaliser_handles_constant_columns():
    matrix = np.column_stack([np.ones(5), np.arange(5.0)])
    mean, std = zscore_normaliser(matrix)
    assert std[0] == 1.0
    assert std[1] > 0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    d=st.integers(min_value=1, max_value=30),
    built=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_index_renormalise_matches_reference_bits(n, d, built, seed):
    # The normaliser computes its std from the deviations it writes into
    # the index's z buffer; the bits must be ndarray.mean/std's and the z
    # rows (matrix - mean) / std.
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-8, 12, d)
    matrix += 10.0 ** rng.uniform(-3, 12, d) * rng.integers(0, 2, d)
    matrix[:, rng.integers(d)] = 1.5  # a degenerate column
    n_built = int(built * n)
    index = SimilarityIndex(list(range(n_built)), matrix[:n_built])
    for i in range(n_built, n):
        index.append(i, matrix[i])
    query = rng.normal(size=d)
    got = index.query(query, k=n)
    mean, std = matrix.mean(axis=0), matrix.std(axis=0)
    std[std < 1e-12] = 1.0
    assert all(a.tobytes() == b.tobytes() for a, b in zip((mean, std), zscore_normaliser(matrix)))
    z = (matrix - mean) / std
    distances = np.sqrt(((z - (query - mean) / std) ** 2).sum(axis=1))
    assert index.mean.tobytes() == mean.tobytes()
    assert index.std.tobytes() == std.tobytes()
    assert [nb.distance for nb in got] == [
        float(distances[i]) for i in np.argsort(distances, kind="stable")
    ]


def test_nearest_datasets_orders_by_distance():
    stored = np.array([[0.0, 0.0], [1.0, 1.0], [10.0, 10.0]])
    neighbors = nearest_datasets(np.array([0.1, 0.1]), [7, 8, 9], stored, k=3)
    assert [n.dataset_id for n in neighbors] == [7, 8, 9]
    assert neighbors[0].distance < neighbors[1].distance < neighbors[2].distance


def test_similarity_bounded_unit():
    stored = np.array([[0.0], [100.0]])
    neighbors = nearest_datasets(np.array([0.0]), [1, 2], stored, k=2)
    for n in neighbors:
        assert 0.0 < n.similarity <= 1.0


def test_nearest_empty_store():
    assert nearest_datasets(np.array([1.0]), [], np.zeros((0, 1)), k=3) == []


def test_k_larger_than_store():
    stored = np.array([[0.0], [1.0]])
    assert len(nearest_datasets(np.array([0.0]), [1, 2], stored, k=10)) == 2


def _leaderboards():
    return {
        1: [("rf", 0.9, {"ntree": 50}), ("svm", 0.7, {"cost": 1.0})],
        2: [("knn", 0.8, {"k": 5}), ("rf", 0.6, {"ntree": 10})],
        3: [("lda", 0.95, {"method": "mle"})],
    }


def test_weighted_nomination_prefers_similar_and_strong():
    neighbors = [
        Neighbor(1, distance=0.1, similarity=0.9),
        Neighbor(2, distance=2.0, similarity=0.3),
    ]
    nominations = weighted_nomination(neighbors, _leaderboards(), n_algorithms=2)
    assert nominations[0].algorithm == "rf"  # strong on the very similar ds
    scores = [n.score for n in nominations]
    assert scores == sorted(scores, reverse=True)


def test_weighted_nomination_magnitude_factor():
    # One extremely similar dataset should dominate many distant ones —
    # the paper's 'top n of a single very similar dataset' behaviour.
    neighbors = [Neighbor(1, 0.05, 0.95)] + [
        Neighbor(3, 5.0, 1 / 6) for _ in range(3)
    ]
    nominations = weighted_nomination(neighbors, _leaderboards(), n_algorithms=2)
    chosen = {n.algorithm for n in nominations}
    assert chosen == {"rf", "svm"}  # both from dataset 1, not lda from ds 3


def test_weighted_nomination_collects_warm_configs():
    neighbors = [Neighbor(1, 0.1, 0.9), Neighbor(2, 0.2, 0.8)]
    nominations = weighted_nomination(neighbors, _leaderboards(), n_algorithms=1)
    rf = nominations[0]
    assert rf.algorithm == "rf"
    assert {"ntree": 50} in rf.warm_configs
    assert {"ntree": 10} in rf.warm_configs
    assert rf.supporting_datasets == [1, 2]


def test_weighted_nomination_dedupes_warm_configs():
    boards = {1: [("rf", 0.9, {"ntree": 50})], 2: [("rf", 0.8, {"ntree": 50})]}
    neighbors = [Neighbor(1, 0.1, 0.9), Neighbor(2, 0.2, 0.8)]
    nominations = weighted_nomination(neighbors, boards, n_algorithms=1)
    assert nominations[0].warm_configs == [{"ntree": 50}]


def test_weighted_nomination_empty_neighbors():
    assert weighted_nomination([], _leaderboards(), 3) == []


def test_distance_only_takes_best_per_neighbor():
    neighbors = [Neighbor(2, 0.1, 0.9), Neighbor(1, 0.5, 0.6)]
    nominations = distance_only_nomination(neighbors, _leaderboards(), 2)
    assert [n.algorithm for n in nominations] == ["knn", "rf"]


def test_distance_only_skips_duplicates():
    boards = {1: [("rf", 0.9, {})], 2: [("rf", 0.8, {})], 3: [("lda", 0.7, {})]}
    neighbors = [Neighbor(1, 0.1, 0.9), Neighbor(2, 0.2, 0.8), Neighbor(3, 0.3, 0.7)]
    nominations = distance_only_nomination(neighbors, boards, 3)
    assert [n.algorithm for n in nominations] == ["rf", "lda"]
