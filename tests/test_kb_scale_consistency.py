"""Consistency of the KB's incremental read caches against cold rebuilds.

The knowledge base keeps a live similarity index and per-dataset
leaderboard cache updated on every append.  These tests assert the scale
contract: any interleaving of appends and queries yields *identical*
nominations, neighbours, and leaderboards to a knowledge base that rebuilds
its caches from a cold store scan — including under concurrent job workers
and across a persistence round-trip.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kb import KnowledgeBase, SimilarityIndex
from repro.kb.similarity import _top_k_stable
from repro.metafeatures import MetaFeatures

ALGORITHMS = ["knn", "rpart", "svm", "random_forest", "lda"]


def _random_mf(rng) -> MetaFeatures:
    return MetaFeatures.from_vector(rng.normal(size=25) * rng.uniform(0.5, 20.0, size=25))


def _random_runs(rng, n_runs: int) -> list[dict]:
    return [
        {
            "algorithm": ALGORITHMS[int(rng.integers(len(ALGORITHMS)))],
            "config": {"p": float(rng.uniform()), "q": int(rng.integers(1, 50))},
            # Coarse accuracies so ties actually happen and exercise the
            # keep-first tie rule of the leaderboard fold.
            "accuracy": round(float(rng.uniform(0.4, 1.0)), 1),
        }
        for _ in range(n_runs)
    ]


def _cold(kb: KnowledgeBase) -> KnowledgeBase:
    """A KB over the same records with none of the caches."""
    return KnowledgeBase(store=kb.store)


# ------------------------------------------------------------ property test


@settings(max_examples=20, deadline=None)
@given(
    ops=st.lists(
        st.sampled_from(["dataset", "run", "batch", "query"]),
        min_size=4,
        max_size=40,
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_interleaved_appends_and_queries_match_cold_rebuild(ops, seed):
    rng = np.random.default_rng(seed)
    kb = KnowledgeBase()
    dataset_ids: list[int] = []
    for op in ops:
        if op == "run" and not dataset_ids:
            op = "dataset"
        if op == "dataset":
            dataset_ids.append(kb.add_dataset(f"d{len(dataset_ids)}", _random_mf(rng)))
        elif op == "run":
            target = dataset_ids[int(rng.integers(len(dataset_ids)))]
            run = _random_runs(rng, 1)[0]
            kb.add_run(target, run["algorithm"], run["config"], run["accuracy"])
        elif op == "batch":
            dataset_ids.append(
                kb.add_result_batch(
                    f"b{len(dataset_ids)}", _random_mf(rng), _random_runs(rng, 3)
                )
            )
        else:  # query — compare every read surface against a cold rebuild
            query = _random_mf(rng)
            cold = _cold(kb)
            k = int(rng.integers(1, 5))
            assert kb.similar_datasets(query, k=k) == cold.similar_datasets(query, k=k)
            for mode in ("weighted", "distance"):
                assert kb.nominate(query, n_algorithms=3, n_neighbors=k, mode=mode) == \
                    cold.nominate(query, n_algorithms=3, n_neighbors=k, mode=mode)
    cold = _cold(kb)
    assert kb.all_leaderboards() == cold.all_leaderboards()
    for dataset_id in dataset_ids:
        assert kb.leaderboard(dataset_id) == cold.leaderboard(dataset_id)


# ----------------------------------------------------------------- top-k


def test_top_k_stable_matches_full_argsort_prefix_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 40))
        # Integer-valued distances force plenty of exact ties.
        distances = rng.integers(0, 6, size=n).astype(np.float64)
        for k in (1, 2, 3, n, n + 5):
            expected = np.argsort(distances, kind="stable")[:k]
            got = _top_k_stable(distances, k)
            assert np.array_equal(got, expected), (distances.tolist(), k)


# ------------------------------------------------------------ exact index


def test_query_renormalises_once_per_append(monkeypatch):
    rng = np.random.default_rng(1)
    index = SimilarityIndex([1, 2], rng.normal(size=(2, 4)))
    calls = []
    real = SimilarityIndex._renormalise
    monkeypatch.setattr(
        SimilarityIndex, "_renormalise", lambda self: calls.append(1) or real(self)
    )
    index.query(rng.normal(size=4), k=2)  # clean since the build: no extra work
    assert calls == []
    index.append(3, rng.normal(size=4))
    index.append(4, rng.normal(size=4))
    index.query(rng.normal(size=4), k=2)
    assert calls == [1]
    index.query(rng.normal(size=4), k=2)  # unchanged store: no extra work
    assert calls == [1]


# ---------------------------------------------------------------- stale store


def test_refresh_caches_after_direct_store_mutation():
    rng = np.random.default_rng(5)
    kb = KnowledgeBase()
    dataset_id = kb.add_dataset("d0", _random_mf(rng))
    kb.add_run(dataset_id, "knn", {"k": 3}, accuracy=0.6)
    assert kb.leaderboard(dataset_id)[0][1] == 0.6
    kb.store.append(
        "runs",
        {"dataset_id": dataset_id, "algorithm": "knn", "config": {"k": 9},
         "accuracy": 0.9, "n_folds": 0, "budget_s": 0.0},
    )
    assert kb.leaderboard(dataset_id)[0][1] == 0.6  # cache is honestly stale
    kb.refresh_caches()
    assert kb.leaderboard(dataset_id)[0][1] == 0.9


def test_snapshot_every_rejected_with_passed_store():
    kb = KnowledgeBase()
    with pytest.raises(ValueError, match="snapshot_every"):
        KnowledgeBase(store=kb.store, snapshot_every=10)
    with pytest.raises(ValueError, match="not both"):
        KnowledgeBase("some/root", store=kb.store)


# ------------------------------------------------------------- persistence


def test_nominations_identical_across_snapshot_reopen(tmp_path):
    rng = np.random.default_rng(6)
    path = tmp_path / "kb"
    queries = [_random_mf(rng) for _ in range(3)]
    with KnowledgeBase(path, snapshot_every=5) as kb:
        for i in range(8):
            kb.add_result_batch(f"d{i}", _random_mf(rng), _random_runs(rng, 2))
        live = [kb.nominate(q) for q in queries]
    assert (path / "shard-000.log.snapshot").exists()
    with KnowledgeBase(path) as reopened:
        assert [reopened.nominate(q) for q in queries] == live


# ------------------------------------------------------------- concurrency


class _KBLandingSmartML:
    """Stub pipeline: lands one experiment through kb_sink, reads the KB."""

    def __init__(self):
        self.kb = KnowledgeBase()

    def run(self, dataset, config, on_phase=None, kb_sink=None):
        rng = np.random.default_rng(config.seed)
        metafeatures = _random_mf(rng)
        sink = kb_sink if kb_sink is not None else self.kb.add_result_batch
        kb_dataset_id = sink(f"job{config.seed}", metafeatures, _random_runs(rng, 2))
        self.kb.nominate(metafeatures)  # reads race the other worker's writes

        class _Result:
            def to_dict(self_inner):
                return {"kb_dataset_id": kb_dataset_id}

        return _Result()


class _StubDataset:
    name = "stub"


def test_caches_consistent_under_two_concurrent_job_workers():
    from repro.api import JobManager

    stub = _KBLandingSmartML()
    manager = JobManager(stub, workers=2)
    try:
        jobs = [
            manager.submit(_StubDataset(), 1, {"max_evals_per_algorithm": 1,
                                               "time_budget_s": None, "seed": i})
            for i in range(8)
        ]
        results = [manager.wait(job.job_id, timeout=60) for job in jobs]
    finally:
        manager.shutdown()
    assert all(job.status == "done" for job in results)
    kb = stub.kb
    assert kb.n_datasets() == 8
    assert kb.n_runs() == 16
    rng = np.random.default_rng(123)
    cold = _cold(kb)
    for _ in range(5):
        query = _random_mf(rng)
        assert kb.nominate(query, n_algorithms=3, n_neighbors=3) == \
            cold.nominate(query, n_algorithms=3, n_neighbors=3)
    assert kb.all_leaderboards() == cold.all_leaderboards()


def test_caches_consistent_under_raw_thread_interleaving():
    kb = KnowledgeBase()
    errors: list[Exception] = []

    def worker(tag: int) -> None:
        rng = np.random.default_rng(tag)
        try:
            for i in range(25):
                kb.add_result_batch(f"w{tag}-{i}", _random_mf(rng), _random_runs(rng, 2))
                kb.nominate(_random_mf(rng))
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert kb.n_datasets() == 50
    cold = _cold(kb)
    rng = np.random.default_rng(321)
    for _ in range(5):
        query = _random_mf(rng)
        assert kb.nominate(query) == cold.nominate(query)
    assert kb.all_leaderboards() == cold.all_leaderboards()
