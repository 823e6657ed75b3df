"""Micro-benchmarks of the substrate hot paths.

Times the operations every macro-experiment is built from: meta-feature
extraction, knowledge-base nomination against the 50-dataset KB, record-log
appends/scans, surrogate training, and tree induction.  These are classic
pytest-benchmark targets (many rounds, statistical summary).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.classifiers.tree import TreeParams, build_tree
from repro.data import SyntheticSpec, make_dataset
from repro.hpo import RandomForestSurrogate
from repro.kb import KnowledgeBase, ShardedRecordStore
from repro.metafeatures import extract_metafeatures


@pytest.fixture(scope="module")
def wide_dataset():
    return make_dataset(
        SyntheticSpec(name="micro", n_instances=500, n_features=30, n_classes=5,
                      n_categorical=4, missing_ratio=0.02, seed=55)
    )


def test_micro_metafeature_extraction(benchmark, wide_dataset):
    vector = benchmark(lambda: extract_metafeatures(wide_dataset).to_vector())
    assert vector.shape == (25,)
    assert np.isfinite(vector).all()


def test_micro_kb_nomination(benchmark, kb50_path, wide_dataset):
    kb = KnowledgeBase(kb50_path)
    metafeatures = extract_metafeatures(wide_dataset)
    try:
        nominations = benchmark(lambda: kb.nominate(metafeatures, n_algorithms=3))
        assert len(nominations) == 3
    finally:
        kb.close()


def test_micro_store_append(benchmark, tmp_path):
    with ShardedRecordStore(tmp_path / "micro") as store:
        counter = iter(range(10_000_000))

        def append():
            return store.append("events", {"i": next(counter), "payload": "x" * 64})

        record_id = benchmark(append)
        assert record_id >= 1


def test_micro_store_scan(benchmark, tmp_path):
    with ShardedRecordStore(tmp_path / "scan") as store:
        for i in range(500):
            store.append("events", {"i": i})
        rows = benchmark(lambda: store.scan("events"))
        assert len(rows) == 500


def test_micro_surrogate_fit_predict(benchmark):
    rng = np.random.default_rng(0)
    X = rng.uniform(size=(120, 6))
    y = ((X - 0.5) ** 2).sum(axis=1)

    def fit_predict():
        surrogate = RandomForestSurrogate(n_trees=24, seed=1).fit(X, y)
        return surrogate.predict(X[:30])

    mean, var = benchmark(fit_predict)
    assert mean.shape == (30,)
    assert (var >= 0).all()


def test_micro_tree_induction(benchmark, wide_dataset):
    X = np.nan_to_num(wide_dataset.X)
    y = wide_dataset.y

    def build():
        return build_tree(X, y, wide_dataset.n_classes, TreeParams(max_depth=12))

    root = benchmark(build)
    assert not root.is_leaf
