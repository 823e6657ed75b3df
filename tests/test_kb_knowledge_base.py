"""Unit + integration tests for the knowledge base."""

import numpy as np
import pytest

from repro.data import SyntheticSpec, make_dataset
from repro.exceptions import KnowledgeBaseError
from repro.kb import KnowledgeBase, bootstrap_knowledge_base
from repro.metafeatures import extract_metafeatures


def _mf(seed=0, **kwargs):
    defaults = dict(name=f"d{seed}", n_instances=60, n_features=5, n_classes=2, seed=seed)
    defaults.update(kwargs)
    return extract_metafeatures(make_dataset(SyntheticSpec(**defaults)))


def test_add_and_count():
    kb = KnowledgeBase()
    dataset_id = kb.add_dataset("d0", _mf(0))
    kb.add_run(dataset_id, "knn", {"k": 3}, accuracy=0.8)
    assert kb.n_datasets() == 1
    assert kb.n_runs() == 1


def test_add_run_unknown_dataset_raises():
    kb = KnowledgeBase()
    with pytest.raises(KnowledgeBaseError):
        kb.add_run(999, "knn", {}, accuracy=0.5)


def test_leaderboard_keeps_best_per_algorithm():
    kb = KnowledgeBase()
    dataset_id = kb.add_dataset("d0", _mf(0))
    kb.add_run(dataset_id, "knn", {"k": 3}, accuracy=0.70)
    kb.add_run(dataset_id, "knn", {"k": 7}, accuracy=0.85)
    kb.add_run(dataset_id, "svm", {"cost": 1.0}, accuracy=0.75)
    board = kb.leaderboard(dataset_id)
    assert ("knn", 0.85, {"k": 7}) in board
    assert len(board) == 2


def test_all_leaderboards_matches_individual():
    kb = KnowledgeBase()
    ids = [kb.add_dataset(f"d{i}", _mf(i)) for i in range(3)]
    for i, dataset_id in enumerate(ids):
        kb.add_run(dataset_id, "knn", {"k": i + 1}, accuracy=0.5 + 0.1 * i)
    boards = kb.all_leaderboards()
    for dataset_id in ids:
        assert boards[dataset_id] == kb.leaderboard(dataset_id)


def test_similar_datasets_finds_same_shape():
    kb = KnowledgeBase()
    near_id = kb.add_dataset("near", _mf(1, n_instances=60, n_features=5, n_classes=2))
    kb.add_dataset("far", _mf(2, n_instances=400, n_features=40, n_classes=10))
    query = _mf(3, n_instances=64, n_features=5, n_classes=2)
    neighbors = kb.similar_datasets(query, k=1)
    assert neighbors[0].dataset_id == near_id


def test_nominate_empty_kb_returns_nothing():
    kb = KnowledgeBase()
    assert kb.nominate(_mf(0)) == []


def test_nominate_returns_algorithms_with_configs():
    kb = KnowledgeBase()
    dataset_id = kb.add_dataset("d0", _mf(0))
    kb.add_run(dataset_id, "rpart", {"cp": 0.01, "minsplit": 5, "minbucket": 2, "maxdepth": 8},
               accuracy=0.9)
    kb.add_run(dataset_id, "knn", {"k": 3}, accuracy=0.6)
    nominations = kb.nominate(_mf(1), n_algorithms=2)
    assert nominations[0].algorithm == "rpart"
    assert nominations[0].warm_configs


def test_nominate_distance_mode():
    kb = KnowledgeBase()
    dataset_id = kb.add_dataset("d0", _mf(0))
    kb.add_run(dataset_id, "lda", {"method": "moment", "nu": 5.0}, accuracy=0.8)
    nominations = kb.nominate(_mf(1), mode="distance")
    assert nominations[0].algorithm == "lda"


def test_persistence_roundtrip(tmp_path):
    path = tmp_path / "kb"
    with KnowledgeBase(path) as kb:
        dataset_id = kb.add_dataset("d0", _mf(0))
        kb.add_run(dataset_id, "knn", {"k": 5}, accuracy=0.77)
    with KnowledgeBase(path) as reopened:
        assert reopened.n_datasets() == 1
        assert reopened.n_runs() == 1
        nominations = reopened.nominate(_mf(1), n_algorithms=1)
        assert nominations[0].algorithm == "knn"


def test_dataset_vectors_shape():
    kb = KnowledgeBase()
    for i in range(3):
        kb.add_dataset(f"d{i}", _mf(i))
    ids, matrix = kb.dataset_vectors()
    assert len(ids) == 3
    assert matrix.shape == (3, 25)


def test_bootstrap_small_corpus():
    kb = KnowledgeBase()
    corpus = [
        make_dataset(SyntheticSpec(name=f"c{i}", n_instances=50, n_features=4,
                                   n_classes=2, seed=i))
        for i in range(2)
    ]
    bootstrap_knowledge_base(
        kb, corpus, algorithms=["knn", "rpart", "lda"],
        configs_per_algorithm=2, n_folds=2, seed=0,
    )
    assert kb.n_datasets() == 2
    assert kb.n_runs() == 6
    for dataset_id, _ in kb.store.scan("datasets"):
        board = kb.leaderboard(dataset_id)
        assert {algo for algo, _, _ in board} == {"knn", "rpart", "lda"}
        for _, accuracy, _ in board:
            assert 0.0 <= accuracy <= 1.0


def test_bootstrap_then_nominate_end_to_end():
    kb = KnowledgeBase()
    corpus = [
        make_dataset(SyntheticSpec(name=f"c{i}", n_instances=60, n_features=5,
                                   n_classes=2, class_sep=2.5, seed=i))
        for i in range(3)
    ]
    bootstrap_knowledge_base(
        kb, corpus, algorithms=["knn", "lda"], configs_per_algorithm=2, n_folds=2,
    )
    nominations = kb.nominate(_mf(9, class_sep=2.5), n_algorithms=2)
    assert len(nominations) == 2
    assert {n.algorithm for n in nominations} == {"knn", "lda"}


def test_add_result_batch_matches_sequential_path(tmp_path):
    runs = [
        {"algorithm": "knn", "config": {"k": 3}, "accuracy": 0.8, "n_folds": 2, "budget_s": 1.0},
        {"algorithm": "svm", "config": {"cost": 2.0}, "accuracy": 0.7},
    ]
    batch_path = tmp_path / "batch"
    seq_path = tmp_path / "seq"

    batched = KnowledgeBase(batch_path)
    batch_id = batched.add_result_batch("d0", _mf(0), runs)
    batched.close()

    sequential = KnowledgeBase(seq_path)
    seq_id = sequential.add_dataset("d0", _mf(0))
    for run in runs:
        sequential.add_run(
            seq_id,
            run["algorithm"],
            run["config"],
            accuracy=run["accuracy"],
            n_folds=run.get("n_folds", 0),
            budget_s=run.get("budget_s", 0.0),
        )
    sequential.close()

    assert batch_id == seq_id
    # Identical ids, identical durable records: the batch is a drop-in for
    # the sequential add_dataset + N x add_run path (it just lands as one
    # frame instead of 1 + N).
    with KnowledgeBase(batch_path) as batch_kb, KnowledgeBase(seq_path) as seq_kb:
        for table in ("datasets", "runs"):
            assert batch_kb.store.scan(table) == seq_kb.store.scan(table)
        assert batch_kb.store.peek_next_id() == seq_kb.store.peek_next_id()


def test_add_result_batch_invalidates_similarity_cache():
    kb = KnowledgeBase()
    kb.add_result_batch("d0", _mf(0), [{"algorithm": "knn", "config": {}, "accuracy": 0.9}])
    assert kb.similar_datasets(_mf(1), k=1)  # builds the cache
    kb.add_result_batch("d2", _mf(2), [{"algorithm": "svm", "config": {}, "accuracy": 0.6}])
    neighbors = kb.similar_datasets(_mf(2), k=2)
    assert len(neighbors) == 2  # sees the new dataset: cache was invalidated
