"""NeuralNet — single-hidden-layer perceptron (R package ``nnet``).

Table 3 row: 0 categorical + 1 numerical hyperparameter (``size``).

Faithful to ``nnet``: one hidden layer of logistic units, softmax output,
small fixed weight decay, trained by quasi-Newton (we use scipy's L-BFGS
where nnet uses BFGS).
"""

from __future__ import annotations

import numpy as np

from repro.classifiers.base import Classifier
from repro.classifiers.linear import softmax
from repro.classifiers.substrate import substrate_for

__all__ = ["NeuralNet"]

_DECAY = 1e-4


class NeuralNet(Classifier):
    """nnet-style MLP: ``size`` hidden logistic units, softmax readout."""

    name = "neural_net"

    def __init__(self, size: int = 8, max_iter: int = 150, seed: int = 0):
        self.size = size
        self.max_iter = max_iter
        self.seed = seed
        self._w1: np.ndarray | None = None
        self._b1: np.ndarray | None = None
        self._w2: np.ndarray | None = None
        self._b2: np.ndarray | None = None
        self._mean: np.ndarray | None = None
        self._scale: np.ndarray | None = None

    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int | None = None):
        X, y = self._start_fit(X, y, n_classes)
        n, d = X.shape
        k = self.n_classes_
        h = max(1, int(self.size))

        # Standardization moments and Z are hyperparameter-independent;
        # every ``size`` candidate on a shared fold reuses them.
        sub = substrate_for(X)
        self._mean, self._scale = sub.moments()
        Z = sub.standardized()

        onehot = np.zeros((n, k))
        onehot[np.arange(n), y] = 1.0

        rng = np.random.default_rng(self.seed)
        sizes = (d * h, h, h * k, k)
        x0 = rng.uniform(-0.5, 0.5, size=sum(sizes))

        def unpack(flat: np.ndarray):
            o = 0
            w1 = flat[o : o + d * h].reshape(d, h); o += d * h
            b1 = flat[o : o + h]; o += h
            w2 = flat[o : o + h * k].reshape(h, k); o += h * k
            b2 = flat[o : o + k]
            return w1, b1, w2, b2

        def objective(flat: np.ndarray) -> tuple[float, np.ndarray]:
            w1, b1, w2, b2 = unpack(flat)
            act = 1.0 / (1.0 + np.exp(-np.clip(Z @ w1 + b1, -40, 40)))
            proba = softmax(act @ w2 + b2)
            nll = -np.sum(onehot * np.log(np.clip(proba, 1e-12, None))) / n
            nll += 0.5 * _DECAY * (float((w1**2).sum()) + float((w2**2).sum()))

            diff = (proba - onehot) / n                    # (n, k)
            grad_w2 = act.T @ diff + _DECAY * w2
            grad_b2 = diff.sum(axis=0)
            back = (diff @ w2.T) * act * (1.0 - act)       # (n, h)
            grad_w1 = Z.T @ back + _DECAY * w1
            grad_b1 = back.sum(axis=0)
            return nll, np.concatenate(
                [grad_w1.ravel(), grad_b1, grad_w2.ravel(), grad_b2]
            )

        from scipy import optimize

        result = optimize.minimize(
            objective, x0, jac=True, method="L-BFGS-B",
            options={"maxiter": int(self.max_iter)},
        )
        self._w1, self._b1, self._w2, self._b2 = unpack(result.x)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = self._check_predict_ready(X)
        Z = (X - self._mean) / self._scale
        act = 1.0 / (1.0 + np.exp(-np.clip(Z @ self._w1 + self._b1, -40, 40)))
        return softmax(act @ self._w2 + self._b2)
