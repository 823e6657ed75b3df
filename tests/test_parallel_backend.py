"""Execution backends and dispatch determinism.

Covers the parallel subsystem end to end:

* backend primitives — order preservation, validation, broken-pool
  recovery;
* worker-aware budget allocation (LPT makespan rescaling);
* config/backend validation;
* the headline determinism contract: ``backend="process"`` ==
  ``backend="thread"`` == ``backend="serial"`` bit for bit under
  evaluation-count budgets, including the degraded path (broken pool) —
  checked property-style across seeds, and over many plans on one pool.
"""

from __future__ import annotations

import logging
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import SmartMLConfig
from repro.data import SyntheticSpec, make_dataset
from repro.exceptions import ConfigurationError
from repro.hpo import allocate_budget, predicted_makespan, uniform_budget
from repro.kb.similarity import Nomination
from repro.parallel import (
    ProcessBackend,
    ProcessBackendUnavailable,
    SerialBackend,
    ThreadBackend,
    execute_candidates,
    get_backend,
    validate_backend_name,
)
from repro.parallel import dispatch as dispatch_module


def _square(x: int) -> int:
    return x * x


def _crash(_x: int) -> int:  # pragma: no cover - runs in a worker process
    os._exit(13)


# ------------------------------------------------------------------ backends
class TestBackendPrimitives:
    def test_validate_backend_name(self):
        for name in ("serial", "thread", "process"):
            assert validate_backend_name(name) == name
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            validate_backend_name("fork")

    def test_get_backend_selection(self):
        assert isinstance(get_backend("serial", 4), SerialBackend)
        assert isinstance(get_backend("thread", 4), ThreadBackend)
        assert isinstance(get_backend("process", 4), ProcessBackend)
        # One worker never pays pool overhead, whatever the name.
        assert isinstance(get_backend("process", 1), SerialBackend)

    def test_worker_counts_validated(self):
        with pytest.raises(ConfigurationError):
            ThreadBackend(0)
        with pytest.raises(ConfigurationError):
            ProcessBackend(0)

    @pytest.mark.parametrize(
        "backend", [SerialBackend(), ThreadBackend(3), ProcessBackend(2)]
    )
    def test_map_preserves_submission_order(self, backend):
        items = list(range(7))
        assert backend.map(_square, items) == [x * x for x in items]

    def test_broken_pool_raises_and_recovers(self):
        backend = ProcessBackend(2)
        with pytest.raises(ProcessBackendUnavailable):
            backend.map(_crash, [1, 2])
        # The broken pool was evicted: the next plan gets a fresh one.
        assert backend.map(_square, [3, 4]) == [9, 16]

    def test_unpicklable_payload_raises_unavailable(self):
        backend = ProcessBackend(2)
        with pytest.raises(ProcessBackendUnavailable):
            backend.map(_square, [lambda: None, lambda: None])
        assert backend.map(_square, [5, 6]) == [25, 36]


# ------------------------------------------------------------ config surface
class TestConfigBackend:
    def test_default_and_roundtrip(self):
        config = SmartMLConfig(time_budget_s=1.0)
        assert config.backend == "thread"
        assert SmartMLConfig.from_dict(config.to_dict()).backend == "thread"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown execution backend"):
            SmartMLConfig(time_budget_s=1.0, backend="mpi")

    def test_serial_backend_requires_one_job(self):
        with pytest.raises(ConfigurationError, match="serial"):
            SmartMLConfig(time_budget_s=1.0, backend="serial", n_jobs=4)
        SmartMLConfig(time_budget_s=1.0, backend="serial", n_jobs=1)

    def test_process_backend_accepted(self):
        config = SmartMLConfig(time_budget_s=1.0, backend="process", n_jobs=4)
        assert config.to_dict()["backend"] == "process"


# -------------------------------------------------- worker-aware allocation
class TestWorkerAwareBudget:
    ALGOS = ["random_forest", "svm", "knn", "lda"]

    def test_one_worker_sums_to_total(self):
        shares = allocate_budget(30.0, self.ALGOS)
        assert sum(shares.values()) == pytest.approx(30.0)
        assert uniform_budget(30.0, self.ALGOS)["knn"] == pytest.approx(7.5)

    def test_concurrent_schedule_hits_wall_clock(self):
        for workers in (2, 3, 4):
            shares = allocate_budget(30.0, self.ALGOS, workers=workers)
            assert predicted_makespan(shares, workers) == pytest.approx(30.0)

    def test_proportions_preserved_under_scaling(self):
        sequential = allocate_budget(30.0, self.ALGOS)
        concurrent = allocate_budget(30.0, self.ALGOS, workers=2)
        ratio = {a: concurrent[a] / sequential[a] for a in self.ALGOS}
        first = next(iter(ratio.values()))
        for value in ratio.values():
            assert value == pytest.approx(first)
        # Concurrency can only grant each algorithm *more* time.
        assert first >= 1.0

    def test_more_workers_than_algorithms_caps_at_longest(self):
        shares = allocate_budget(30.0, self.ALGOS, workers=16)
        # Every algorithm runs concurrently; the longest share IS the wall
        # clock, so it is scaled up to the full budget.
        assert max(shares.values()) == pytest.approx(30.0)

    def test_invalid_workers(self):
        with pytest.raises(ConfigurationError):
            allocate_budget(30.0, self.ALGOS, workers=0)
        with pytest.raises(ConfigurationError):
            uniform_budget(30.0, self.ALGOS, workers=-1)

    def test_makespan_deterministic_tie_break(self):
        shares = {"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0}
        assert predicted_makespan(shares, 2) == pytest.approx(2.0)
        assert predicted_makespan(dict(reversed(list(shares.items()))), 2) == (
            pytest.approx(2.0)
        )


# --------------------------------------------------- dispatch determinism
def _dispatch_problem(seed: int):
    ds = make_dataset(
        SyntheticSpec(
            name=f"dispatch-{seed}", n_instances=90, n_features=5, n_classes=2,
            n_informative=3, class_sep=2.0, seed=seed,
        )
    )
    split = 60
    X_train, y_train = ds.X[:split], ds.y[:split]
    X_val, y_val = ds.X[split:], ds.y[split:]
    nominations = [
        Nomination(algorithm="knn", score=1.0),
        Nomination(algorithm="lda", score=0.9, warm_configs=[{"method": "mle"}]),
        Nomination(algorithm="naive_bayes", score=0.8),
    ]
    budgets = {n.algorithm: None for n in nominations}
    seeds = [seed + 1, seed + 2, seed + 3]
    return nominations, seeds, budgets, X_train, y_train, X_val, y_val


def _config(backend: str, n_jobs: int) -> SmartMLConfig:
    return SmartMLConfig(
        max_evals_per_algorithm=2, n_folds=2, n_jobs=n_jobs, backend=backend,
    )


def _signature(results) -> list[tuple]:
    return [
        (
            r.algorithm, r.best_config, r.cv_error, r.validation_accuracy,
            r.n_config_evals, r.n_fold_evals, r.warm_started,
        )
        for r in results
    ]


def _run_backend(backend: str, n_jobs: int, seed: int):
    nominations, seeds, budgets, X_tr, y_tr, X_va, y_va = _dispatch_problem(seed)
    return execute_candidates(
        nominations, seeds, budgets, _config(backend, n_jobs),
        X_tr, y_tr, X_va, y_va, 2,
    )


class TestDispatchDeterminism:
    @settings(
        max_examples=3, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_process_thread_serial_identity(self, seed):
        serial = _signature(_run_backend("serial", 1, seed))
        assert _signature(_run_backend("thread", 2, seed)) == serial
        assert _signature(_run_backend("process", 2, seed)) == serial

    def test_results_come_back_in_nomination_order(self):
        results = _run_backend("thread", 3, seed=5)
        assert [r.algorithm for r in results] == ["knn", "lda", "naive_bayes"]

    def test_seed_count_mismatch_rejected(self):
        nominations, _seeds, budgets, X_tr, y_tr, X_va, y_va = _dispatch_problem(0)
        with pytest.raises(ValueError, match="seed per nomination"):
            execute_candidates(
                nominations, [1, 2], budgets, _config("serial", 1),
                X_tr, y_tr, X_va, y_va, 2,
            )

    def test_broken_pool_degrades_to_thread_identically(self, monkeypatch, caplog):
        serial = _signature(_run_backend("serial", 1, seed=7))

        def broken_map(self, fn, items):
            raise ProcessBackendUnavailable("injected worker crash")

        monkeypatch.setattr(dispatch_module.ProcessBackend, "map", broken_map)
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            degraded = _signature(_run_backend("process", 2, seed=7))
        assert degraded == serial
        assert any("falling back" in r.message for r in caplog.records)

    def test_many_equal_plans_on_one_pool_match_serial(self, caplog):
        # Twelve content-equal plans back to back on one 2-worker pool.
        # Each plan ships its own (equal) arrays; every plan must
        # come back identical to the serial plan without the pool breaking
        # and replaying on threads.  When fold arrays travelled through
        # shared memory, the 9th plan was the first to evict a cached
        # attachment, and its workers read the closed segment: wrong
        # validation accuracies, or a SIGSEGV while pickling the result.
        serial = _signature(_run_backend("serial", 1, seed=3))
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            plans = [_signature(_run_backend("process", 2, seed=3)) for _ in range(12)]
        assert not [
            r.message for r in caplog.records
            if "process backend unavailable" in r.message
        ]
        assert plans == [serial] * 12
