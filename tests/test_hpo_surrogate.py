"""Unit tests for the random-forest surrogate and expected improvement."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError
from repro.hpo import RandomForestSurrogate, RegressionTree, expected_improvement


def _quadratic(n=200, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = (X[:, 0] - 0.3) ** 2 + 0.5 * (X[:, 1] + 0.2) ** 2
    return X, y


def test_regression_tree_fits_step_function():
    X = np.linspace(0, 1, 100).reshape(-1, 1)
    y = (X[:, 0] > 0.5).astype(float)
    tree = RegressionTree(max_depth=3).fit(X, y)
    pred = tree.predict(X)
    assert np.abs(pred - y).mean() < 0.05


def test_regression_tree_constant_target():
    X = np.random.default_rng(0).normal(size=(30, 2))
    tree = RegressionTree().fit(X, np.full(30, 2.5))
    assert np.allclose(tree.predict(X), 2.5)


def test_regression_tree_unfitted_raises():
    with pytest.raises(NotFittedError):
        RegressionTree().predict(np.zeros((2, 2)))


def test_surrogate_mean_tracks_function():
    X, y = _quadratic()
    surrogate = RandomForestSurrogate(n_trees=20, seed=0).fit(X, y)
    mean, _ = surrogate.predict(X)
    correlation = np.corrcoef(mean, y)[0, 1]
    assert correlation > 0.9


def test_surrogate_variance_higher_off_data():
    X, y = _quadratic()
    surrogate = RandomForestSurrogate(n_trees=20, seed=0).fit(X, y)
    _, var_in = surrogate.predict(X[:20])
    _, var_out = surrogate.predict(np.full((5, 2), 5.0))  # far outside data
    assert var_out.mean() >= var_in.mean()


def test_surrogate_unfitted_raises():
    with pytest.raises(NotFittedError):
        RandomForestSurrogate().predict(np.zeros((2, 2)))


def test_surrogate_deterministic_given_seed():
    X, y = _quadratic()
    a = RandomForestSurrogate(n_trees=10, seed=3).fit(X, y).predict(X)[0]
    b = RandomForestSurrogate(n_trees=10, seed=3).fit(X, y).predict(X)[0]
    assert np.allclose(a, b)


def test_expected_improvement_zero_when_mean_far_worse():
    ei = expected_improvement(np.array([10.0]), np.array([1e-6]), best=1.0)
    assert ei[0] == pytest.approx(0.0, abs=1e-9)


def test_expected_improvement_positive_when_better():
    ei = expected_improvement(np.array([0.5]), np.array([0.01]), best=1.0)
    assert ei[0] > 0.4


def test_expected_improvement_grows_with_variance():
    mean = np.array([1.0, 1.0])
    var = np.array([1e-6, 1.0])
    ei = expected_improvement(mean, var, best=1.0)
    assert ei[1] > ei[0]


def test_expected_improvement_non_negative_everywhere():
    rng = np.random.default_rng(1)
    ei = expected_improvement(rng.normal(size=100), rng.uniform(0, 2, 100), best=0.0)
    assert (ei >= 0).all()


def test_expected_improvement_matches_scipy_stats_norm_bit_for_bit():
    # EI spells the normal cdf/pdf as ndtr and exp(-z²/2)/√(2π) to keep
    # scipy.stats off the import path; scipy.stats.norm is the oracle.
    from scipy import stats

    rng = np.random.default_rng(7)
    mean = np.concatenate([np.linspace(-40.0, 40.0, 100_000), rng.normal(size=1000)])
    var = np.concatenate([np.ones(100_000), 10.0 ** rng.uniform(-14, 4, 1000)])
    best, xi = 0.0, 1e-4
    sigma = np.sqrt(np.maximum(var, 1e-12))
    z = (best - mean - xi) / sigma
    expected = np.maximum(
        (best - mean - xi) * stats.norm.cdf(z) + sigma * stats.norm.pdf(z), 0.0
    )
    got = expected_improvement(mean, var, best, xi)
    assert got.tobytes() == expected.tobytes()
    assert z.min() < -39 and z.max() > 39  # both tails were exercised
