"""Power transforms of Table 2: Box-Cox and Yeo-Johnson.

Both estimate a per-column exponent ``lambda`` by maximising the profile
log-likelihood of the transformed sample under a normality assumption —
the same criterion R's ``caret::preProcess`` uses.  Box-Cox applies only to
strictly positive columns (the paper: "apply box-cox transform to non-zero
positive values"); Yeo-Johnson applies to all real values.
"""

from __future__ import annotations

import numpy as np

from repro.data.dataset import Dataset
from repro.preprocess.base import Transformer

__all__ = ["BoxCox", "YeoJohnson", "boxcox_transform", "yeojohnson_transform"]

_LAMBDA_BOUNDS = (-2.0, 2.0)


def boxcox_transform(x: np.ndarray, lam: float) -> np.ndarray:
    """Box-Cox transform of positive data for a given lambda."""
    if abs(lam) < 1e-8:
        return np.log(x)
    return (np.power(x, lam) - 1.0) / lam


def _boxcox_loglik(lam: float, x: np.ndarray) -> float:
    z = boxcox_transform(x, lam)
    var = z.var()
    if var <= 0:
        return -np.inf
    n = x.size
    return -0.5 * n * np.log(var) + (lam - 1.0) * np.log(x).sum()


def yeojohnson_transform(x: np.ndarray, lam: float) -> np.ndarray:
    """Yeo-Johnson transform of arbitrary real data for a given lambda."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    if abs(lam) < 1e-8:
        out[pos] = np.log1p(x[pos])
    else:
        out[pos] = (np.power(x[pos] + 1.0, lam) - 1.0) / lam
    if abs(lam - 2.0) < 1e-8:
        out[~pos] = -np.log1p(-x[~pos])
    else:
        out[~pos] = -(np.power(1.0 - x[~pos], 2.0 - lam) - 1.0) / (2.0 - lam)
    return out


def _yeojohnson_loglik(lam: float, x: np.ndarray) -> float:
    z = yeojohnson_transform(x, lam)
    var = z.var()
    if var <= 0:
        return -np.inf
    n = x.size
    return -0.5 * n * np.log(var) + (lam - 1.0) * np.sum(np.sign(x) * np.log1p(np.abs(x)))


def _optimise_lambda(loglik, x: np.ndarray) -> float:
    from scipy import optimize

    result = optimize.minimize_scalar(
        lambda lam: -loglik(lam, x), bounds=_LAMBDA_BOUNDS, method="bounded"
    )
    return float(result.x)


class BoxCox(Transformer):
    """Per-column Box-Cox with MLE lambda; skips non-positive columns."""

    def __init__(self) -> None:
        self.lambdas_: dict[int, float] = {}

    def fit(self, ds: Dataset) -> "BoxCox":
        self.lambdas_ = {}
        for j in ds.numeric_indices:
            col = ds.X[:, j]
            observed = col[~np.isnan(col)]
            if observed.size < 3 or observed.min() <= 0 or np.ptp(observed) < 1e-12:
                continue
            self.lambdas_[int(j)] = _optimise_lambda(_boxcox_loglik, observed)
        self._fitted = True
        return self

    def transform(self, ds: Dataset) -> Dataset:
        self._check_fitted()
        out = ds.copy()
        for j, lam in self.lambdas_.items():
            col = out.X[:, j]
            valid = ~np.isnan(col) & (col > 0)
            col[valid] = boxcox_transform(col[valid], lam)
            out.X[:, j] = col
        return out


class YeoJohnson(Transformer):
    """Per-column Yeo-Johnson with MLE lambda; applies to all numeric values."""

    def __init__(self) -> None:
        self.lambdas_: dict[int, float] = {}

    def fit(self, ds: Dataset) -> "YeoJohnson":
        self.lambdas_ = {}
        for j in ds.numeric_indices:
            col = ds.X[:, j]
            observed = col[~np.isnan(col)]
            if observed.size < 3 or np.ptp(observed) < 1e-12:
                continue
            self.lambdas_[int(j)] = _optimise_lambda(_yeojohnson_loglik, observed)
        self._fitted = True
        return self

    def transform(self, ds: Dataset) -> Dataset:
        self._check_fitted()
        out = ds.copy()
        for j, lam in self.lambdas_.items():
            col = out.X[:, j]
            valid = ~np.isnan(col)
            col[valid] = yeojohnson_transform(col[valid], lam)
            out.X[:, j] = col
        return out
