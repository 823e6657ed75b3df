"""Classifier interface.

All 15 classifiers of Table 3 implement this small contract:

* ``fit(X, y, n_classes=None)`` — train on a dense float matrix and integer
  labels.  ``n_classes`` fixes the width of probability outputs even when a
  training split happens to miss a class (routine during k-fold racing).
* ``predict(X)`` — integer labels.
* ``predict_proba(X)`` — ``(n, n_classes)`` row-stochastic matrix.

Hyperparameters are plain ``__init__`` keyword arguments, introspected by
:meth:`Classifier.get_params` / :meth:`Classifier.clone`, which is what lets
the SMAC layer treat every classifier uniformly as ``config -> model``.

Implementations share hyperparameter-independent per-matrix work through
two identity-keyed weak registries: the tree family through
``tree/presort.py`` (one argsort per fold) and every other family through
``classifiers/substrate.py`` (standardization moments, Gram matrices,
neighbour orderings, sufficient statistics).  ``fit`` receives the exact
array object the caller registered — ``check_Xy`` only converts when the
input is not already a float64 matrix — which is what makes identity
keying safe.

Serialization contract
----------------------
A fitted classifier must round-trip through the stdlib pickle *protocol*
(``__getstate__`` / ``__setstate__``) with **bit-identical** predictions:
the model registry (:mod:`repro.serving`) and the process backend both
ship models across memory/process boundaries this way.  Concretely:

* fitted state must consist of primitives, numpy arrays of numeric dtype,
  containers of those, and instances of ``repro.*`` classes that honour
  the same contract — no lambdas, no open handles, no foreign objects;
* anything derived lazily from the training matrix (cached Grams,
  neighbour orderings, densities) must either be dropped in
  ``__getstate__`` and rebuilt on demand to the same bits — the
  ``Substrate`` convention — or be a pure function of serialised state;
* no family needs a custom hook unless it holds such caches or must read
  an older state layout (the forests pack a per-tree list on load): the
  default ``__dict__``/``__slots__`` state is serialised as-is by the
  registry's typed codec (:mod:`repro.serving.codec`), with array dtypes
  and byte order pinned.

``tests/test_serving_registry.py`` enforces the round-trip for every
registry entry, so a new family is covered the moment it is registered.
"""

from __future__ import annotations

import abc
import inspect

import numpy as np

from repro.exceptions import DataError, NotFittedError

__all__ = ["Classifier", "check_Xy", "check_X"]


def check_Xy(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate and canonicalise a training pair."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2:
        raise DataError(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1 or y.shape[0] != X.shape[0]:
        raise DataError(f"y shape {y.shape} incompatible with X shape {X.shape}")
    if X.shape[0] == 0:
        raise DataError("cannot fit on 0 instances")
    if not np.isfinite(X).all():
        raise DataError("X contains NaN or infinite values; impute first")
    if (y < 0).any():
        raise DataError("y must contain non-negative class codes")
    return X, y


def check_X(X: np.ndarray, n_features: int | None = None) -> np.ndarray:
    """Validate a prediction matrix."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError(f"X must be 2-D, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DataError("X contains NaN or infinite values; impute first")
    if n_features is not None and X.shape[1] != n_features:
        raise DataError(
            f"X has {X.shape[1]} features but the model was fitted on {n_features}"
        )
    return X


class Classifier(abc.ABC):
    """Common base class; see module docstring for the contract."""

    #: Registry name (matches Table 3), set by subclasses.
    name: str = "classifier"

    n_classes_: int | None = None
    n_features_: int | None = None
    classes_seen_: np.ndarray | None = None

    # -------------------------------------------------------------- plumbing
    def _start_fit(
        self, X: np.ndarray, y: np.ndarray, n_classes: int | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shared fit-entry validation; records shape metadata."""
        X, y = check_Xy(X, y)
        observed = int(y.max()) + 1
        self.n_classes_ = max(observed, n_classes or 0)
        self.n_features_ = X.shape[1]
        self.classes_seen_ = np.unique(y)
        return X, y

    def _check_predict_ready(self, X: np.ndarray) -> np.ndarray:
        if self.n_classes_ is None:
            raise NotFittedError(f"{type(self).__name__} is not fitted")
        return check_X(X, self.n_features_)

    # -------------------------------------------------------------- contract
    @abc.abstractmethod
    def fit(self, X: np.ndarray, y: np.ndarray, n_classes: int | None = None) -> "Classifier":
        """Train the model; returns ``self``."""

    @abc.abstractmethod
    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix of shape ``(n, n_classes_)``."""

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most probable class per row."""
        return np.argmax(self.predict_proba(X), axis=1)

    # ------------------------------------------------------------ parameters
    def get_params(self) -> dict[str, object]:
        """Current hyperparameters, keyed by ``__init__`` argument name."""
        signature = inspect.signature(type(self).__init__)
        params = {}
        for pname, parameter in signature.parameters.items():
            if pname == "self" or parameter.kind in (
                inspect.Parameter.VAR_POSITIONAL,
                inspect.Parameter.VAR_KEYWORD,
            ):
                continue
            params[pname] = getattr(self, pname)
        return params

    def clone(self, **overrides: object) -> "Classifier":
        """Unfitted copy with the same (optionally overridden) parameters."""
        params = self.get_params()
        params.update(overrides)
        return type(self)(**params)

    # --------------------------------------------------------------- helpers
    def _constant_proba(self, n_rows: int, label: int) -> np.ndarray:
        """Degenerate single-class output used when training saw one label."""
        proba = np.zeros((n_rows, self.n_classes_), dtype=np.float64)
        proba[:, label] = 1.0
        return proba

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"
