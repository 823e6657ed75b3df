"""Unit tests for the cross-validation objective and its cache."""

import numpy as np
import pytest

from repro.classifiers import make_classifier
from repro.hpo import CrossValObjective, classifier_space
from repro.hpo.objective import array_digest


@pytest.fixture
def objective(multi_ds):
    return CrossValObjective(
        lambda config: make_classifier("rpart", **config),
        multi_ds.X, multi_ds.y, n_classes=multi_ds.n_classes, n_folds=4, seed=0,
    )


def _key(config):
    return classifier_space("rpart").config_key(config)


def test_fold_errors_in_unit_interval(objective):
    config = classifier_space("rpart").default_config()
    for fold in range(objective.n_folds):
        error = objective.evaluate_fold(config, _key(config), fold)
        assert 0.0 <= error <= 1.0


def test_evaluate_subset_of_folds(objective):
    config = classifier_space("rpart").default_config()
    partial = objective.evaluate(config, _key(config), fold_ids=[0, 1])
    assert objective.evaluated_folds(_key(config)) == [0, 1]
    full = objective.evaluate(config, _key(config))
    assert objective.evaluated_folds(_key(config)) == [0, 1, 2, 3]
    assert 0.0 <= partial <= 1.0 and 0.0 <= full <= 1.0


def test_known_mean_tracks_evaluated_folds(objective):
    config = classifier_space("rpart").default_config()
    key = _key(config)
    assert objective.known_mean(key) is None
    e0 = objective.evaluate_fold(config, key, 0)
    assert objective.known_mean(key) == pytest.approx(e0)
    e1 = objective.evaluate_fold(config, key, 1)
    assert objective.known_mean(key) == pytest.approx((e0 + e1) / 2)


def test_cache_counts_only_new_fits(objective):
    config = classifier_space("rpart").default_config()
    key = _key(config)
    objective.evaluate(config, key)
    assert objective.n_fold_evaluations == 4
    objective.evaluate(config, key)          # fully cached
    assert objective.n_fold_evaluations == 4
    other = dict(config, maxdepth=3)
    objective.evaluate(other, _key(other), fold_ids=[0])
    assert objective.n_fold_evaluations == 5


def test_distinct_configs_do_not_collide(objective):
    space = classifier_space("rpart")
    a = space.default_config()
    b = dict(a, cp=0.2)
    assert _key(a) != _key(b)
    error_a = objective.evaluate(a, _key(a), fold_ids=[0])
    error_b = objective.evaluate(b, _key(b), fold_ids=[0])
    # Different pruning on noisy folds usually differs; at minimum the
    # cache must keep them separate.
    assert objective.evaluated_folds(_key(a)) == [0]
    assert objective.evaluated_folds(_key(b)) == [0]
    assert 0.0 <= error_a <= 1.0 and 0.0 <= error_b <= 1.0


def test_total_fit_seconds_accumulates(objective):
    config = classifier_space("rpart").default_config()
    objective.evaluate(config, _key(config))
    assert objective.total_fit_seconds > 0.0


def test_factory_receives_config_verbatim(multi_ds):
    seen = []

    def factory(config):
        seen.append(dict(config))
        return make_classifier("knn", k=int(config["k"]))

    objective = CrossValObjective(
        factory, multi_ds.X, multi_ds.y, n_classes=multi_ds.n_classes,
        n_folds=2, seed=0,
    )
    objective.evaluate({"k": 7}, (("k", "7"),))
    assert all(config == {"k": 7} for config in seen)
    assert len(seen) == 2  # one model per fold


def test_array_digest_sensitivity():
    a = np.arange(6, dtype=np.float64)
    assert array_digest(a) == array_digest(a.copy())
    assert array_digest(a) != array_digest(a.reshape(2, 3))
    assert array_digest(a) != array_digest(a.astype(np.float32))
    b = a.copy()
    b[0] += 1.0
    assert array_digest(a) != array_digest(b)
