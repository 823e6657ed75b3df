"""Micro-batching correctness under adversarial concurrency.

Three properties, in rising order of subtlety:

1. *row ownership* — N threads firing rows at the same model each get
   exactly their own predictions back, order preserved, no matter how the
   scheduler interleaves their arrivals;
2. *error isolation* — a request that poisons a coalesced pass fails
   alone; its batch-mates still get answers;
3. *bit-identity* — for row-local families, a row predicted inside a
   coalesced batch carries exactly the same bits as the same row predicted
   solo (the pad-to-gemm trick in the executor is what makes this hold for
   single-row requests too).
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.classifiers import CLASSIFIER_REGISTRY
from repro.core.result import SmartMLResult
from repro.data import SyntheticSpec, make_dataset
from repro.preprocess import Imputer, Pipeline
from repro.serving import ModelRegistry, PredictionBatcher
from repro.serving.batcher import BatchRequestError
from repro.serving.registry import RegistryError

#: Families whose predict path treats every row independently — for these
#: the batched == unbatched guarantee is *bitwise*.  LMT is deliberately
#: absent: it regroups rows by leaf and fits nothing per row, so its
#: outputs are deterministic per batch but not stable across batch
#: compositions (see docs/serving.md).
ROW_LOCAL = {
    "random_forest": {"ntree": 5},
    "knn": {"k": 3},
    "svm": {},
    "naive_bayes": {},
    "lda": {},
}


@pytest.fixture(scope="module")
def served():
    train = make_dataset(
        SyntheticSpec(name="batch-train", n_instances=90, n_features=6,
                      n_classes=3, class_sep=2.0, seed=43)
    )
    fresh = make_dataset(
        SyntheticSpec(name="batch-fresh", n_instances=64, n_features=6,
                      n_classes=3, class_sep=2.0, seed=47)
    )
    pipeline = Pipeline([Imputer()])
    prepared = pipeline.fit_transform(train)
    registry = ModelRegistry()
    for name, params in ROW_LOCAL.items():
        model = CLASSIFIER_REGISTRY[name](**params)
        model.fit(prepared.X, prepared.y, n_classes=train.n_classes)
        result = SmartMLResult(
            dataset_name=train.name, best_algorithm=name, best_config=dict(params),
            validation_accuracy=0.0, model=model, pipeline=pipeline,
        )
        registry.register(name, result, dataset=train)
    return registry, fresh


def _hammer(batcher, jobs, start_jitter=0.0005):
    """Run one-predict callables on their own threads with slightly
    staggered starts.

    The threads line up *inside* ``predict`` — in its model lookup, after
    the batcher has counted them as on their way to the queue — so they
    are concurrent in the batcher's sense: a lone request holds its window
    open only for predicts that have already entered ``predict``.
    """
    barrier = threading.Barrier(len(jobs))
    outcomes: list = [None] * len(jobs)
    registry = batcher.registry
    real_load = registry.load
    lined_up = threading.local()

    def load(model_id, version=None):
        if getattr(lined_up, "index", None) is not None:
            index, lined_up.index = lined_up.index, None
            barrier.wait()
            if start_jitter:
                time.sleep((index % 4) * start_jitter)  # adversarial interleaving
        return real_load(model_id, version)

    def run(i, fn):
        lined_up.index = i
        try:
            outcomes[i] = ("ok", fn())
        except Exception as exc:
            outcomes[i] = ("err", exc)

    threads = [threading.Thread(target=run, args=(i, fn)) for i, fn in enumerate(jobs)]
    registry.load = load
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        del registry.load
    return outcomes


def test_each_thread_gets_exactly_its_rows(served):
    registry, fresh = served
    batcher = PredictionBatcher(registry, window_s=0.01)
    try:
        # 16 threads, uneven slice sizes, all against one model.
        slices, cursor, size = [], 0, 1
        while cursor < fresh.n_instances:
            slices.append((cursor, min(cursor + size, fresh.n_instances)))
            cursor += size
            size = size % 5 + 1
        expected = registry.load("knn").predict_rows(fresh.X, proba=True)
        outcomes = _hammer(
            batcher,
            [
                (lambda lo=lo, hi=hi: batcher.predict("knn", fresh.X[lo:hi], proba=True))
                for lo, hi in slices
            ],
        )
        for (lo, hi), (status, value) in zip(slices, outcomes):
            assert status == "ok"
            assert value.shape == (hi - lo, 3)
            assert np.array_equal(value, expected[lo:hi]), (
                f"rows [{lo}:{hi}] came back wrong under concurrency"
            )
        stats = batcher.stats()
        assert stats.requests == len(slices)
        assert stats.rows == fresh.n_instances
    finally:
        batcher.shutdown()


@pytest.mark.parametrize("family", sorted(ROW_LOCAL))
def test_batched_equals_unbatched_bit_for_bit(served, family):
    registry, fresh = served
    batcher = PredictionBatcher(registry, window_s=0.01)
    try:
        chunks = [fresh.X[i : i + 3] for i in range(0, 24, 3)] + [fresh.X[30:31]]
        # Solo reference: each chunk through its own pass, no coalescing.
        solo = [batcher.predict(family, c, proba=True, coalesce=False) for c in chunks]
        outcomes = _hammer(
            batcher,
            [(lambda c=c: batcher.predict(family, c, proba=True)) for c in chunks],
        )
        for reference, (status, value) in zip(solo, outcomes):
            assert status == "ok"
            assert np.array_equal(reference, value), (
                f"{family}: batched proba differs from solo proba"
            )
        assert batcher.stats().coalesced_requests > 0, (
            "test never actually coalesced; weaken the window assumptions"
        )
    finally:
        batcher.shutdown()


def test_malformed_request_rejected_before_joining_a_batch(served):
    registry, fresh = served
    batcher = PredictionBatcher(registry, window_s=0.01)
    try:
        jobs = [lambda: batcher.predict("lda", fresh.X[:4])] * 3
        jobs.insert(1, lambda: batcher.predict("lda", fresh.X[:4, :2]))  # wrong width
        jobs.insert(3, lambda: batcher.predict("lda", [["a", "b"]]))  # not numeric
        outcomes = _hammer(batcher, jobs)
        statuses = [status for status, _ in outcomes]
        assert statuses.count("ok") == 3
        assert statuses.count("err") == 2
        for status, value in outcomes:
            if status == "err":
                assert isinstance(value, BatchRequestError)
        assert batcher.stats().failed_requests == 0  # rejected at the door
    finally:
        batcher.shutdown()


def test_poison_row_in_coalesced_batch_fails_alone(served):
    registry, fresh = served
    batcher = PredictionBatcher(registry, window_s=0.05)
    try:
        # inf passes the batcher's shape checks and survives imputation
        # (which only fills NaN), then detonates at the model's check_X.
        poison = fresh.X[:2].copy()
        poison[0, 0] = np.inf
        healthy = [fresh.X[4:8], fresh.X[8:10], fresh.X[10:15]]
        expected = [
            batcher.predict("naive_bayes", rows, coalesce=False) for rows in healthy
        ]
        jobs = [(lambda r=r: batcher.predict("naive_bayes", r)) for r in healthy]
        jobs.insert(1, lambda: batcher.predict("naive_bayes", poison))
        outcomes = _hammer(batcher, jobs, start_jitter=0.0)
        errors = [value for status, value in outcomes if status == "err"]
        oks = [value for status, value in outcomes if status == "ok"]
        assert len(errors) == 1, "exactly the poisoned request must fail"
        assert len(oks) == 3
        for reference, value in zip(expected, oks):
            assert np.array_equal(reference, value)
        stats = batcher.stats()
        assert stats.isolation_reruns >= 1
        assert stats.failed_requests == 1
    finally:
        batcher.shutdown()


def test_zero_window_still_coalesces_backlog(served):
    registry, fresh = served
    batcher = PredictionBatcher(registry, window_s=0.0)
    try:
        outcomes = _hammer(
            batcher,
            [
                (lambda i=i: batcher.predict("lda", fresh.X[i : i + 2]))
                for i in range(0, 40, 2)
            ],
            start_jitter=0.0,
        )
        assert all(status == "ok" for status, _ in outcomes)
        # No latency floor, but whatever piled up while a pass ran must
        # still have been taken together at least once in 20 requests.
        assert batcher.stats().batches <= batcher.stats().requests
    finally:
        batcher.shutdown()


def test_max_batch_rows_respected(served):
    registry, fresh = served
    batcher = PredictionBatcher(registry, window_s=0.05, max_batch_rows=8)
    try:
        outcomes = _hammer(
            batcher,
            [(lambda i=i: batcher.predict("knn", fresh.X[i : i + 5])) for i in range(6)],
        )
        assert all(status == "ok" for status, _ in outcomes)
        assert batcher.stats().max_batch_rows <= 8
    finally:
        batcher.shutdown()


def test_different_models_never_share_a_batch(served):
    registry, fresh = served
    batcher = PredictionBatcher(registry, window_s=0.02)
    try:
        expected = {
            name: registry.load(name).predict_rows(fresh.X[:6], proba=True)
            for name in ("knn", "lda", "naive_bayes")
        }
        jobs = []
        for name in ("knn", "lda", "naive_bayes") * 3:
            jobs.append(lambda n=name: (n, batcher.predict(n, fresh.X[:6], proba=True)))
        outcomes = _hammer(batcher, jobs)
        for status, value in outcomes:
            assert status == "ok"
            name, proba = value
            assert np.array_equal(proba, expected[name])
    finally:
        batcher.shutdown()


def test_shutdown_fails_pending_and_rejects_new(served):
    registry, fresh = served
    batcher = PredictionBatcher(registry, window_s=0.01)
    batcher.shutdown()
    with pytest.raises(RegistryError, match="shut down"):
        batcher.predict("knn", fresh.X[:2])
    batcher.shutdown()  # idempotent


def test_lone_predict_does_not_wait_out_the_window(served):
    registry, fresh = served
    batcher = PredictionBatcher(registry, window_s=5.0)
    try:
        expected = batcher.predict("knn", fresh.X[:2], coalesce=False)
        start = time.perf_counter()
        got = batcher.predict("knn", fresh.X[:2])
        assert time.perf_counter() - start < 1.0  # no partner on its way
        assert np.array_equal(got, expected)
        assert batcher.stats().coalesced_requests == 0
    finally:
        batcher.shutdown()


def test_lone_request_waits_for_a_predict_on_its_way(served, monkeypatch):
    registry, fresh = served
    batcher = PredictionBatcher(registry, window_s=5.0)
    entered, release = threading.Event(), threading.Event()
    real_load = registry.load

    def held_load(model_id, version=None):
        if threading.current_thread().name == "late":
            entered.set()
            release.wait(5.0)
        return real_load(model_id, version)

    monkeypatch.setattr(registry, "load", held_load)
    outcomes = {}
    late = threading.Thread(
        name="late",
        target=lambda: outcomes.setdefault("late", batcher.predict("knn", fresh.X[2:4])),
    )
    try:
        late.start()
        assert entered.wait(5.0)
        # "late" sits between predict() entry and enqueue, so the lone head
        # request holds the window open for it instead of running at once.
        head = threading.Thread(
            target=lambda: outcomes.setdefault("head", batcher.predict("knn", fresh.X[:2]))
        )
        head.start()
        time.sleep(0.05)
        release.set()
        head.join(10.0)
        late.join(10.0)
        stats = batcher.stats()
        assert stats.batches == 1 and stats.coalesced_requests == 2
        assert np.array_equal(outcomes["head"], real_load("knn").predict_rows(fresh.X[:2]))
    finally:
        release.set()
        batcher.shutdown()


def test_arrival_counts_settle_under_contention(served):
    # Every coalescing predict counts itself onto and off its way to the
    # queue; a lost update would leave a stale count behind (and make
    # every later lone request for that model wait out the window).
    registry, fresh = served
    batcher = PredictionBatcher(registry, window_s=0.001)
    expected = {name: registry.load(name).predict_rows(fresh.X[:4]) for name in ("knn", "lda")}
    failures = []

    def client(i):
        for j in range(8):
            name = ("knn", "lda")[(i + j) % 2]
            if j == 3:  # a request rejected at the door must still count off
                try:
                    batcher.predict(name, fresh.X[:4, :2])
                    failures.append((i, j))
                except BatchRequestError:
                    pass
            elif not np.array_equal(batcher.predict(name, fresh.X[:4]), expected[name]):
                failures.append((i, j))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(switch)
        batcher.shutdown()
    assert failures == []
    assert batcher._arriving == {}
    assert batcher.stats().requests == 8 * 7
