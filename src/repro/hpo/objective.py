"""Evaluation objective shared by every tuner.

Wraps (model factory, training data) as a fold-wise error function with
per-``(config, fold)`` caching, so racing never refits a configuration on a
fold it has already seen — the cache is what makes SMAC's intensification
cheap.

Folds are also shared *across* objectives.  A dispatch plan splits its
training set once (:class:`FoldSplit`) and hands the split to every
candidate's objective, and :func:`canonical_fold` keys each fold by
content digest, so objectives that split the same data the same way (the
candidates of a plan on a process-backend worker, which re-split) are
handed the same fold arrays and the same live presort/substrate state,
computed once per process.
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
from repro.classifiers.tree.presort import PresortedMatrix, share_presort
from repro.evaluation.metrics import error_rate
from repro.evaluation.resampling import stratified_kfold_indices

__all__ = ["CrossValObjective", "FoldSplit"]

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
) -> _FoldBundle:
    """The canonical bundle for this fold content.

    Keyed by the combined content digest of all four arrays: the first
    registration wins and later content-identical folds (other HPO
    candidates racing the same split in this process) are handed the same
    array objects — so the identity-keyed presort/substrate registries
    hit, and each fold's expensive state is built once per process.
    Callers must treat the bundle's arrays as read-only.
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
        return bundle


class FoldSplit:
    """The stratified k-fold split of one training set, built once.

    Every candidate of a dispatch plan races the same folds, so the plan
    builds one split and hands it to each candidate's
    :class:`CrossValObjective`: the folds are split, copied and
    canonicalised (:func:`canonical_fold`) on first use and then shared.
    The split also registers the whole training matrix for presort
    sharing, which the single-tree families' lockstep fold fits and the
    final refit on the training set grow from.

    A split pickles as its inputs only, so a process-backend task carries
    no fold arrays; the worker re-splits on first use.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray, n_folds: int, seed: int):
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.int64)
        self.n_folds = n_folds
        self.seed = seed
        self._lock = threading.Lock()
        self._built: tuple | None = None

    def __getstate__(self) -> dict:
        return {"X": self.X, "y": self.y, "n_folds": self.n_folds, "seed": self.seed}

    def __setstate__(self, state: dict) -> None:
        self.__init__(**state)

    def _build(self) -> tuple:
        with self._lock:
            if self._built is None:
                folds = stratified_kfold_indices(self.y, self.n_folds, seed=self.seed)
                bundles = [
                    canonical_fold(
                        self.X[train_idx],
                        self.y[train_idx],
                        self.X[test_idx],
                        self.y[test_idx],
                    )
                    for train_idx, test_idx in folds
                ]
                self._built = (folds, bundles, share_presort(self.X))
            return self._built

    @property
    def folds(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(train_indices, test_indices)`` per fold, both ascending."""
        return self._build()[0]

    @property
    def data(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """Canonical ``(X_train, y_train, X_test, y_test)`` per fold."""
        return [bundle.arrays for bundle in self._build()[1]]

    def presort(self) -> PresortedMatrix:
        """The shared presort of the whole training matrix."""
        return self._build()[2].presort()


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
    split:
        A :class:`FoldSplit` of ``(X, y)`` to race instead of splitting
        here (``n_folds`` and ``fold_seed`` are then the split's).  The
        dispatcher builds one per plan, so its candidates split once.
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
        split: FoldSplit | None = None,
    ):
        self.model_factory = model_factory
        if split is None:
            split = FoldSplit(X, y, n_folds, seed if fold_seed is None else fold_seed)
        # Each fold's train/test arrays are copied once (by the split) and
        # canonicalised by content digest, so every fit on a fold sees the
        # same array objects: the identity-keyed presort/substrate
        # registries then hit across configurations and candidates, and the
        # pinned test blocks let predict-side caches (neighbour orderings,
        # cross-Grams, NB densities) key on identity.  The split keeps the
        # fold bundles, and with them those registrations, alive.
        self.split = split
        self.X = split.X
        self.y = split.y
        self.n_classes = n_classes
        self.folds = split.folds
        self._fold_data = split.data
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

    def evaluate_folds(self, config: Config, key: tuple) -> list[float]:
        """Errors of a not-yet-evaluated ``config`` on every fold, from one
        lockstep fit of all folds; ``[]`` when its family fits fold by fold.

        Each error equals :meth:`evaluate_fold`'s and is cached the same
        way.  All or nothing: when the fit raises, no fold is recorded, so
        a per-fold retry reproduces exactly the per-fold outcome.
        """
        if self._cache.get(key):
            return []
        fit_folds = getattr(self.model_factory(config), "fit_folds", None)
        if fit_folds is None:
            return []
        started = time.monotonic()
        models = fit_folds(
            self.split.presort(), self.y,
            [train_idx for train_idx, _ in self.folds], self.n_classes,
        )
        predictions = [
            fold_model.predict(fold[2])
            for fold_model, fold in zip(models, self._fold_data)
        ]
        self.total_fit_seconds += time.monotonic() - started
        errors = [
            error_rate(fold[3], fold_predictions)
            for fold, fold_predictions in zip(self._fold_data, predictions)
        ]
        self._cache[key] = dict(enumerate(errors))
        self.n_fold_evaluations += len(errors)
        return errors

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
