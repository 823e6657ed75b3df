"""Evaluation objective shared by every tuner.

Wraps (model factory, training data) as a fold-wise error function with
per-``(config, fold)`` caching, so racing never refits a configuration on a
fold it has already seen — the cache is what makes SMAC's intensification
cheap.

Folds are also shared *across* objectives: :func:`canonical_fold` keys
each fold by content digest, so two objectives that split the same data
the same way (the HPO candidates of one dispatch plan, on any backend)
are handed the same fold arrays and the same live presort/substrate
state, computed once per process.
"""

from __future__ import annotations

import hashlib
import threading
import time
import weakref
from collections import deque
from typing import Callable

import numpy as np

from repro.classifiers.base import Classifier
from repro.classifiers.substrate import pin_block, share_substrate
from repro.classifiers.tree.presort import share_presort
from repro.evaluation.metrics import error_rate
from repro.evaluation.resampling import stratified_kfold_indices

__all__ = ["CrossValObjective"]

Config = dict[str, object]

#: Recent fold bundles kept alive so their presorts/substrates survive
#: between objectives (one bundle per fold; 2 datasets x 3 folds).
_FOLD_KEEPALIVE_MAX = 6


def array_digest(array: np.ndarray) -> str:
    """128-bit blake2b content digest over dtype, shape and C-order bytes."""
    array = np.ascontiguousarray(array)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(array.dtype).encode())
    h.update(repr(array.shape).encode())
    h.update(array.tobytes())
    return h.hexdigest()


class _FoldBundle:
    """Canonical arrays of one fold plus its live registry handles."""

    __slots__ = ("arrays", "handles", "__weakref__")

    def __init__(self, arrays: tuple[np.ndarray, ...]):
        self.arrays = arrays
        # (presort, substrate) on the training matrix, pin on the test
        # block: lazy registrations, computed on first use and shared by
        # every objective handed this bundle.
        X_train, _y_train, X_test, _y_test = arrays
        self.handles = (
            share_presort(X_train),
            share_substrate(X_train),
            pin_block(X_test),
        )


_FOLDS: dict[str, "weakref.ref[_FoldBundle]"] = {}
_FOLDS_LOCK = threading.Lock()
#: Strong refs to recent bundles so presorts/substrates survive between
#: objectives (bounded; the weak registry does the actual lookups).
_FOLD_KEEPALIVE: deque[_FoldBundle] = deque(maxlen=_FOLD_KEEPALIVE_MAX)


def canonical_fold(
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_test: np.ndarray,
    y_test: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The canonical array objects for this fold content.

    Keyed by the combined content digest of all four arrays: the first
    registration wins and later content-identical folds (other HPO
    candidates racing the same split in this process) are handed the same
    array objects — so the identity-keyed presort/substrate registries
    hit, and each fold's expensive state is built once per process.
    Callers must treat the returned arrays as read-only.
    """
    parts = (X_train, y_train, X_test, y_test)
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(array_digest(part).encode())
    key = h.hexdigest()
    with _FOLDS_LOCK:
        ref = _FOLDS.get(key)
        bundle = ref() if ref is not None else None
        if bundle is None:
            bundle = _FoldBundle(parts)
            _FOLDS[key] = weakref.ref(
                bundle, lambda _ref, _key=key: _FOLDS.pop(_key, None)
            )
        _FOLD_KEEPALIVE.append(bundle)
        return bundle.arrays


class CrossValObjective:
    """Stratified-CV error of ``model_factory(config)`` on fixed folds.

    Parameters
    ----------
    model_factory:
        Callable turning a configuration dict into an unfitted classifier.
    X, y:
        Training data (already preprocessed).
    n_classes:
        Global class count, forwarded to ``fit`` so fold models emit
        full-width probability rows.
    n_folds:
        Number of stratified folds (shared by all configurations).
    seed:
        Seed for this objective's tuner-visible randomness.
    fold_seed:
        Seed for the fold split specifically (defaults to ``seed``).  The
        candidate dispatcher passes one shared ``fold_seed`` to every
        nominated algorithm so all candidates race **the same folds** —
        which lets the content-addressed fold registry hand every
        objective the same fold arrays and the same live
        presort/substrate state, computed once per process.
    """

    def __init__(
        self,
        model_factory: Callable[[Config], Classifier],
        X: np.ndarray,
        y: np.ndarray,
        n_classes: int,
        n_folds: int = 3,
        seed: int = 0,
        fold_seed: int | None = None,
    ):
        self.model_factory = model_factory
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.int64)
        self.n_classes = n_classes
        if fold_seed is None:
            fold_seed = seed
        self.folds = stratified_kfold_indices(self.y, n_folds, seed=fold_seed)
        # Fancy-indexing X[train_idx]/X[test_idx] copies the data on every
        # (config, fold) evaluation; the folds are fixed for the objective's
        # lifetime, so copy each fold's train/test arrays once up front and
        # hand every fit the same (read-only by convention) arrays.  This
        # trades ~n_folds extra resident copies of X for zero per-evaluation
        # slicing — the right side of the trade at this library's
        # laptop-scale datasets and 2-3 fold protocols.  Each fold is then
        # canonicalised by content digest: two objectives producing
        # identical folds (candidates racing the same split) are handed the
        # *same* array objects, so the identity-keyed presort/substrate
        # registries below hit across objectives instead of rebuilding
        # per-fold state for every candidate.
        self._fold_data = [
            canonical_fold(
                self.X[train_idx],
                self.y[train_idx],
                self.X[test_idx],
                self.y[test_idx],
            )
            for train_idx, test_idx in self.folds
        ]
        # Register each fold's training matrix for presort sharing: every
        # tree-family fit on that fold — any configuration of any
        # tree-family algorithm this objective races, and every ensemble
        # member via bootstrap subsampling — reuses one per-fold argsort.
        # The presorts are computed lazily (first tree fit) and live
        # exactly as long as this objective does (weak registry).
        self._presort_handles = [
            share_presort(fold[0]) for fold in self._fold_data
        ]
        # The non-tree twin: one substrate per fold so SVM/KNN/naive
        # Bayes/discriminant/linear candidates share standardization
        # moments, Gram matrices, neighbour orderings and sufficient
        # statistics.  Lazy like the presorts, and alive exactly as long
        # as this objective (weak registry).
        self._substrate_handles = [
            share_substrate(fold[0]) for fold in self._fold_data
        ]
        # Test blocks are owned by this objective and never mutated, so
        # declare them content-stable: predict-side caches (neighbour
        # orderings, cross-Grams, NB densities) may key on their identity.
        self._pin_handles = [
            pin_block(fold[2]) for fold in self._fold_data
        ]
        self._cache: dict[tuple, dict[int, float]] = {}
        self.n_fold_evaluations = 0
        self.total_fit_seconds = 0.0

    @property
    def n_folds(self) -> int:
        return len(self.folds)

    def evaluate_fold(self, config: Config, key: tuple, fold_id: int) -> float:
        """Error of ``config`` on one fold (cached)."""
        per_config = self._cache.setdefault(key, {})
        if fold_id in per_config:
            return per_config[fold_id]
        X_train, y_train, X_test, y_test = self._fold_data[fold_id]
        started = time.monotonic()
        model = self.model_factory(config)
        model.fit(X_train, y_train, n_classes=self.n_classes)
        predictions = model.predict(X_test)
        self.total_fit_seconds += time.monotonic() - started
        error = error_rate(y_test, predictions)
        per_config[fold_id] = error
        self.n_fold_evaluations += 1
        return error

    def evaluate(self, config: Config, key: tuple, fold_ids: list[int] | None = None) -> float:
        """Mean error over the given folds (all folds when omitted)."""
        if fold_ids is None:
            fold_ids = list(range(self.n_folds))
        return float(
            np.mean([self.evaluate_fold(config, key, f) for f in fold_ids])
        )

    def known_mean(self, key: tuple) -> float | None:
        """Mean error over whatever folds this config has run so far."""
        per_config = self._cache.get(key)
        if not per_config:
            return None
        return float(np.mean(list(per_config.values())))

    def evaluated_folds(self, key: tuple) -> list[int]:
        """Fold ids this config has already been evaluated on."""
        return sorted(self._cache.get(key, {}))
