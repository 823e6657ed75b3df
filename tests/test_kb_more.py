"""Additional knowledge-base scenarios: lifecycle, durability, scale."""

import numpy as np

from repro.data import SyntheticSpec, make_dataset
from repro.kb import KnowledgeBase
from repro.metafeatures import extract_metafeatures


def _mf(seed=0, **kwargs):
    defaults = dict(name=f"m{seed}", n_instances=50, n_features=4, n_classes=2, seed=seed)
    defaults.update(kwargs)
    return extract_metafeatures(make_dataset(SyntheticSpec(**defaults)))


def test_kb_compaction_preserves_nominations(tmp_path):
    path = tmp_path / "kb"
    with KnowledgeBase(path) as kb:
        for i in range(4):
            dataset_id = kb.add_dataset(f"d{i}", _mf(i))
            kb.add_run(dataset_id, "knn", {"k": i + 1}, accuracy=0.6 + 0.05 * i)
        before = [n.algorithm for n in kb.nominate(_mf(99), n_algorithms=2)]
        kb.compact()
        after = [n.algorithm for n in kb.nominate(_mf(99), n_algorithms=2)]
        assert before == after
    with KnowledgeBase(path) as reopened:
        assert reopened.n_datasets() == 4
        assert reopened.n_runs() == 4


def test_kb_many_runs_per_dataset_leaderboard_is_max(tmp_path):
    kb = KnowledgeBase()
    dataset_id = kb.add_dataset("d", _mf(0))
    rng = np.random.default_rng(0)
    best = -1.0
    for _ in range(50):
        accuracy = float(rng.uniform(0.3, 0.9))
        best = max(best, accuracy)
        kb.add_run(dataset_id, "rpart", {"cp": 0.01, "minsplit": 5,
                                         "minbucket": 2, "maxdepth": 8},
                   accuracy=accuracy)
    board = kb.leaderboard(dataset_id)
    assert len(board) == 1
    assert board[0][1] == best


def test_kb_nominate_more_algorithms_than_known():
    kb = KnowledgeBase()
    dataset_id = kb.add_dataset("d", _mf(0))
    kb.add_run(dataset_id, "knn", {"k": 3}, accuracy=0.8)
    nominations = kb.nominate(_mf(1), n_algorithms=10)
    assert len(nominations) == 1  # can't invent algorithms it never saw


def test_kb_growth_improves_similarity_resolution():
    # With more stored datasets, the nearest neighbour of a query gets
    # strictly closer (in z-scored distance) or stays equal.
    kb = KnowledgeBase()
    query = _mf(500, n_instances=80, n_features=6, n_classes=3)
    distances = []
    for i in range(12):
        kb.add_dataset(
            f"d{i}",
            _mf(i, n_instances=40 + 10 * i, n_features=3 + (i % 5), n_classes=2 + (i % 3)),
        )
        neighbors = kb.similar_datasets(query, k=1)
        distances.append(neighbors[0].distance)
    assert min(distances[6:]) <= min(distances[:3]) + 1e-9


def test_kb_runs_with_zero_accuracy_are_kept():
    kb = KnowledgeBase()
    dataset_id = kb.add_dataset("d", _mf(0))
    kb.add_run(dataset_id, "svm", {"kernel": "linear", "cost": 1.0,
                                   "gamma": 0.1, "degree": 3, "coef0": 0.0},
               accuracy=0.0)
    assert kb.leaderboard(dataset_id)[0][1] == 0.0


def test_kb_close_is_idempotent(tmp_path):
    kb = KnowledgeBase(tmp_path / "kb")
    kb.add_dataset("d", _mf(0))
    kb.close()
    kb.close()  # must not raise
