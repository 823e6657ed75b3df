"""Multinomial logistic regression (substrate model).

Used directly by LMT (logistic models at the leaves) and PLSDA (softmax
probability method), and as the final layer reference for the neural net.
Optimised with L-BFGS on the L2-regularised cross-entropy; the analytic
gradient keeps this fast for the small matrices this library works with.
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import Classifier
from repro.classifiers.substrate import substrate_for

__all__ = ["softmax", "MultinomialLogisticRegression"]


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-shift for numerical stability."""
    shifted = scores - scores.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


class MultinomialLogisticRegression(Classifier):
    """Softmax regression with L2 penalty.

    Parameters
    ----------
    l2:
        Ridge penalty on the weight matrix (not the intercept).
    max_iter:
        L-BFGS iteration cap; also reused by LMT as its boosting-ish
        "iterations" control.
    """

    name = "logistic"

    def __init__(self, l2: float = 1e-3, max_iter: int = 100):
        self.l2 = l2
        self.max_iter = max_iter
        self.weights_: np.ndarray | None = None   # (d, k)
        self.intercept_: np.ndarray | None = None  # (k,)
        self._mean: np.ndarray | None = None
        self._scale: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int | None = None):
        X, y = self._start_fit(X, y, n_classes)
        n, d = X.shape
        k = self.n_classes_

        # Standardise internally; de-standardisation is folded into the
        # learned weights so predict needs no extra state.  Moments and Z
        # come from the (possibly fold-shared) substrate cache.
        sub = substrate_for(X)
        self._mean, self._scale = sub.moments()
        Z = sub.standardized()

        onehot = np.zeros((n, k), dtype=np.float64)
        onehot[np.arange(n), y] = 1.0

        def objective(flat: np.ndarray) -> tuple[float, np.ndarray]:
            W = flat[: d * k].reshape(d, k)
            b = flat[d * k :]
            proba = softmax(Z @ W + b)
            nll = -np.sum(onehot * np.log(np.clip(proba, 1e-12, None))) / n
            nll += 0.5 * self.l2 * float((W**2).sum())
            diff = (proba - onehot) / n
            grad_w = Z.T @ diff + self.l2 * W
            grad_b = diff.sum(axis=0)
            return nll, np.concatenate([grad_w.ravel(), grad_b])

        from scipy import optimize

        x0 = np.zeros(d * k + k)
        result = optimize.minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.weights_ = result.x[: d * k].reshape(d, k)
        self.intercept_ = result.x[d * k :]
        return self

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        """Pre-softmax linear scores."""
        X = self._check_predict_ready(X)
        Z = (X - self._mean) / self._scale
        return Z @ self.weights_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return softmax(self.decision_scores(X))
