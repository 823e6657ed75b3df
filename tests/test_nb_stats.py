"""Naive-Bayes sufficient statistics against the per-(class, column) oracle.

``Substrate._build_nb_stats`` reduces one contiguous (columns x rows) block
per class and ``Substrate.column_levels`` reads every column's levels off
one ``np.sort(X, axis=0)``.  The oracle below is the loop they replaced:
one ``np.unique`` per column, one ``col.mean()``/``col.std()`` per
(class, column) pair, and discrete-level tables keyed by the int64 cast.  Every statistic must match it bit for bit on hostile
columns: constant, integral with few levels, signed zeros, huge scale, and
classes with one row or none.  CI runs this module with RuntimeWarnings
promoted to errors (a one-row class takes the std of one value; an absent
class must not divide by zero).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers.naive_bayes import _MAX_DISCRETE_LEVELS
from repro.classifiers.substrate import Substrate


def oracle_column_levels(X, max_levels):
    levels = []
    for j in range(X.shape[1]):
        values = np.unique(X[:, j])
        if values.size <= max_levels and np.allclose(values, np.round(values)):
            levels.append(values)
        else:
            levels.append(None)
    return levels


def oracle_nb_moments(X, y, k, continuous):
    means = np.zeros((k, len(continuous)))
    stds = np.ones((k, len(continuous)))
    silverman = np.zeros((k, len(continuous)))
    samples = tuple(dict() for _ in range(k))
    for ki in range(k):
        rows = np.flatnonzero(y == ki)
        for cj, j in enumerate(continuous):
            col = X[rows, j] if rows.size else np.zeros(1)
            means[ki, cj] = col.mean() if col.size else 0.0
            std = col.std() if col.size > 1 else 0.0
            stds[ki, cj] = max(std, 1e-6)
            if rows.size:
                samples[ki][cj] = col
                silverman[ki, cj] = (
                    1.06 * max(std, 1e-6) * max(col.size, 1) ** (-0.2)
                )
    return means, stds, silverman, samples


def oracle_tables(X, y, k, levels):
    # The int64 cast the statistics replaced; defined only below 2**63.
    tables = {}
    for j, lv in enumerate(levels):
        if lv is None or np.abs(lv).max() >= 2.0**63:
            continue
        int_levels = lv.astype(np.int64)
        idx = np.searchsorted(int_levels, X[:, j].astype(np.int64), side="right") - 1
        raw = np.zeros((k, int_levels.size))
        np.add.at(raw, (y, idx), 1.0)
        tables[j] = (int_levels.astype(np.float64), raw)
    return tables


def _bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, np.ascontiguousarray(a).tobytes()


def _column(kind, rng, n):
    if kind == "normal":
        return rng.normal(size=n)
    if kind == "constant":
        return np.full(n, rng.normal())
    if kind == "few_levels":
        return rng.integers(-2, 3, size=n).astype(np.float64)
    if kind == "signed_zero":
        return rng.choice([-0.0, 0.0, 1.0], size=n)
    if kind == "huge":
        return rng.normal(size=n) * 1e150
    if kind == "tiny":
        return rng.normal(size=n) * 1e-300
    if kind == "many_integers":
        return rng.integers(0, 1000, size=n).astype(np.float64)
    raise AssertionError(kind)


KINDS = ["normal", "constant", "few_levels", "signed_zero", "huge", "tiny",
         "many_integers"]


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    n=st.integers(min_value=1, max_value=80),
    kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=7),
    k=st.integers(min_value=1, max_value=5),
    absent=st.booleans(),
    one_row=st.booleans(),
)
def test_nb_stats_match_per_pair_oracle(seed, n, kinds, k, absent, one_row):
    rng = np.random.default_rng(seed)
    X = np.column_stack([_column(kind, rng, n) for kind in kinds])
    y = rng.integers(0, k, size=n)
    if absent and k > 1:
        y[y == k - 1] = 0  # the last class has no rows
    if one_row and n > 1:
        y[y == 0] = min(1, k - 1)
        y[0] = 0  # class 0 has exactly one row

    sub = Substrate(X)
    levels = sub.column_levels(_MAX_DISCRETE_LEVELS)
    expected_levels = oracle_column_levels(X, _MAX_DISCRETE_LEVELS)
    assert [lv is None for lv in levels] == [lv is None for lv in expected_levels]
    for got, want in zip(levels, expected_levels):
        if want is not None:
            assert _bits(got) == _bits(want)

    stats = sub.nb_stats(y, k, _MAX_DISCRETE_LEVELS)
    continuous = [j for j, lv in enumerate(expected_levels) if lv is None]
    assert stats.continuous_cols == tuple(continuous)
    for j, (want_levels, want_raw) in oracle_tables(X, y, k, expected_levels).items():
        got_levels, got_raw = stats.tables[j]
        assert _bits(got_levels) == _bits(want_levels)
        assert _bits(got_raw) == _bits(want_raw)
    means, stds, silverman, samples = oracle_nb_moments(X, y, k, continuous)
    assert _bits(stats.means) == _bits(means)
    assert _bits(stats.stds) == _bits(stds)
    assert _bits(stats.silverman) == _bits(silverman)
    for got, want in zip(stats.samples, samples):
        assert sorted(got) == sorted(want)
        for cj in want:
            assert _bits(got[cj]) == _bits(want[cj])
            assert not got[cj].flags.writeable


def test_nb_stats_without_continuous_columns():
    X = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
    y = np.array([0, 1, 1])
    stats = Substrate(X).nb_stats(y, 3, _MAX_DISCRETE_LEVELS)
    assert stats.continuous_cols == ()
    assert stats.means.shape == stats.stds.shape == (3, 0)
    assert all(not per_class for per_class in stats.samples)
