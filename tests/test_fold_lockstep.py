"""Lockstep fold trees and the plan-wide fold split.

The single-tree families (rpart, J48) fit a configuration's cross-validation
folds in one lockstep grow over the training set's presort
(``SingleTreeClassifier.fit_folds``); each fold's tree, pruning included,
must equal the tree fitted on that fold's rows alone.  A configuration that
raises must leave the same quarantine record as the per-fold loop, and a
dispatch plan must split its folds once, whatever the backend.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.classifiers import make_classifier
from repro.classifiers.rpart import RPart
from repro.classifiers.tree.presort import PresortedMatrix
from repro.data import SyntheticSpec, make_dataset
from repro.hpo import SMAC, SMACSettings, CrossValObjective, classifier_space
from repro.hpo import objective as objective_module
from repro.hpo.objective import FoldSplit
from repro.kb.similarity import Nomination
from repro.core import SmartMLConfig
from repro.parallel import execute_candidates

TREE_FIELDS = ("feature", "threshold", "left", "right", "parent", "counts", "proba")


def _assert_same_tree(got, want):
    for name in TREE_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _problem(seed: int, n: int, d: int, n_classes: int):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    # Integral columns give tied values, the presort's stable-filter case.
    X[:, : d // 2] = np.round(X[:, : d // 2] * 2)
    y = rng.integers(0, n_classes, size=n)
    y[:n_classes] = np.arange(n_classes)
    return X, y


@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    family=st.sampled_from(["rpart", "j48"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    k=st.integers(min_value=2, max_value=10),
    n=st.integers(min_value=20, max_value=160),
    d=st.integers(min_value=1, max_value=6),
    n_classes=st.integers(min_value=2, max_value=4),
)
def test_lockstep_fold_trees_equal_per_fold_fits(family, seed, k, n, d, n_classes):
    X, y = _problem(seed, n, d, n_classes)
    rng = np.random.default_rng(seed + 1)
    fold_of = rng.integers(0, k, size=n)
    rows = [np.flatnonzero(fold_of != f) for f in range(k)]
    rows = [r for r in rows if r.size]
    config = classifier_space(family).sample(rng)
    model = make_classifier(family, **config)

    fitted = model.fit_folds(PresortedMatrix(X), y, rows, n_classes)

    assert len(fitted) == len(rows)
    for fold_model, fold_rows in zip(fitted, rows):
        alone = model.clone().fit(X[fold_rows], y[fold_rows], n_classes)
        _assert_same_tree(fold_model.flat_, alone.flat_)
        assert fold_model.n_classes_ == alone.n_classes_
        assert fold_model.n_features_ == alone.n_features_
        assert np.array_equal(fold_model.classes_seen_, alone.classes_seen_)


# ------------------------------------------------------------ quarantine
class _FailingRPart(RPart):
    """rpart whose default configuration (``cp`` 0.01, SMAC's first) raises
    on any training set holding the marker row: every fold but the one
    testing that row, so the failure is fold-specific."""

    lockstep_fits = 0

    def _start_fit(self, X, y, n_classes):
        if self.cp < 0.05 and np.any(X[:, 0] > 1e6):
            raise ValueError("marker row in the training set")
        return super()._start_fit(X, y, n_classes)

    def fit_folds(self, *args, **kwargs):
        type(self).lockstep_fits += 1
        return super().fit_folds(*args, **kwargs)


def _smac_outcome(objective, seed):
    space = classifier_space("rpart")
    smac = SMAC(space, SMACSettings(time_budget_s=None, max_config_evals=4, seed=seed))
    warm = [dict(space.default_config(), cp=0.2)]
    result = smac.optimize(objective, initial_configs=warm)
    return (
        result.incumbent, result.incumbent_cost, result.n_fold_evals,
        result.n_failed_trials, result.failures,
        [(r.config, r.cost, r.n_folds, r.error) for r in result.history],
    )


@pytest.mark.parametrize("family", ["rpart", "j48"])
def test_evaluate_folds_matches_evaluate_fold(family):
    X, y = _problem(3, 120, 4, 3)
    space = classifier_space(family)
    config = space.sample(np.random.default_rng(3))

    def objective():
        return CrossValObjective(
            lambda cfg: make_classifier(family, **cfg), X, y,
            n_classes=3, n_folds=4, seed=3,
        )

    per_fold = objective()
    want = [per_fold.evaluate_fold(config, "key", f) for f in range(4)]
    lockstep = objective()
    assert lockstep.evaluate_folds(config, "key") == want
    assert lockstep.evaluated_folds("key") == [0, 1, 2, 3]
    assert lockstep.n_fold_evaluations == 4
    assert lockstep.evaluate_folds(config, "key") == []  # already evaluated


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_raising_configuration_quarantined_as_per_fold(seed, monkeypatch):
    X, y = _problem(seed, 90, 4, 2)
    X[seed, 0] = 1e7  # the marker row

    def run():
        objective = CrossValObjective(
            lambda cfg: _FailingRPart(**cfg), X, y, n_classes=2, n_folds=3, seed=seed
        )
        return _smac_outcome(objective, seed)

    _FailingRPart.lockstep_fits = 0
    lockstep = run()
    assert _FailingRPart.lockstep_fits == 1  # the first configuration's
    monkeypatch.setattr(
        CrossValObjective, "evaluate_folds", lambda self, config, key: []
    )
    per_fold = run()
    assert _FailingRPart.lockstep_fits == 1
    assert lockstep == per_fold
    failures = lockstep[4]
    assert failures[0]["config"] == classifier_space("rpart").default_config()
    assert failures[0]["error"] == "ValueError: marker row in the training set"
    assert np.isfinite(lockstep[1])  # a passing configuration took over


# ------------------------------------------------------- one split per plan
def _plan(seed: int):
    ds = make_dataset(
        SyntheticSpec(
            name=f"split-{seed}", n_instances=90, n_features=5, n_classes=2,
            n_informative=3, class_sep=2.0, seed=seed,
        )
    )
    nominations = [
        Nomination(algorithm="rpart", score=1.0),
        Nomination(algorithm="naive_bayes", score=0.9),
        Nomination(algorithm="j48", score=0.8),
    ]
    budgets = {n.algorithm: None for n in nominations}
    return (
        nominations, [seed + 1, seed + 2, seed + 3], budgets,
        ds.X[:60], ds.y[:60], ds.X[60:], ds.y[60:],
    )


def _run(backend: str, n_jobs: int, seed: int):
    nominations, seeds, budgets, X_tr, y_tr, X_va, y_va = _plan(seed)
    config = SmartMLConfig(
        max_evals_per_algorithm=2, n_folds=3, n_jobs=n_jobs, backend=backend,
    )
    results = execute_candidates(
        nominations, seeds, budgets, config, X_tr, y_tr, X_va, y_va, 2,
    )
    return [
        (r.algorithm, r.best_config, r.cv_error, r.validation_accuracy,
         r.n_config_evals, r.n_fold_evals,
         r.model.predict_proba(X_va).tobytes())
        for r in results
    ]


@pytest.mark.parametrize("backend,n_jobs", [("serial", 1), ("thread", 3)])
def test_plan_splits_its_folds_once(backend, n_jobs, monkeypatch):
    calls = {"split": 0, "canonical": 0}
    real_split = objective_module.stratified_kfold_indices
    real_canonical = objective_module.canonical_fold

    def counted_split(*args, **kwargs):
        calls["split"] += 1
        return real_split(*args, **kwargs)

    def counted_canonical(*args, **kwargs):
        calls["canonical"] += 1
        return real_canonical(*args, **kwargs)

    monkeypatch.setattr(objective_module, "stratified_kfold_indices", counted_split)
    monkeypatch.setattr(objective_module, "canonical_fold", counted_canonical)
    results = _run(backend, n_jobs, seed=4)
    assert len(results) == 3
    assert calls == {"split": 1, "canonical": 3}


def test_process_backend_results_unchanged():
    serial = _run("serial", 1, seed=9)
    assert _run("thread", 3, seed=9) == serial
    assert _run("process", 2, seed=9) == serial


def test_fold_split_pickles_as_its_inputs():
    X, y = _problem(0, 60, 3, 2)
    split = FoldSplit(X, y, 3, seed=5)
    bare = len(pickle.dumps(split))
    split.data  # builds the folds
    assert len(pickle.dumps(split)) == bare
    clone = pickle.loads(pickle.dumps(split))
    assert [
        (a.tobytes(), b.tobytes()) for a, b in clone.folds
    ] == [(a.tobytes(), b.tobytes()) for a, b in split.folds]
    # Content-equal splits share the canonical fold arrays in one process.
    assert all(
        got is want
        for got_fold, want_fold in zip(clone.data, split.data)
        for got, want in zip(got_fold, want_fold)
    )
