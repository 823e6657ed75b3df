"""Shared fold-substrate cache for the non-tree classifier families.

The tree family got its per-fold reuse story in ``tree/presort.py``: one
argsort per fold, shared by every HPO candidate through a weak registry.
This module is the same idea for everything else SMAC races.  A
:class:`Substrate` holds the **hyperparameter-independent** state of one
training matrix, computed lazily on first use:

* standardization moments (mean / clamped std) and the standardized matrix
  ``Z`` — recomputed per candidate by SVM, KNN, NeuralNet and the logistic
  substrate model in the seed code;
* kernel Gram matrices ``K(Z, Z)`` per ``(kernel, gamma, degree, coef0)``
  so SMAC's many ``cost`` candidates at the same kernel parameters reuse
  one kernel evaluation, and one-vs-one pairs slice the full-fold Gram by
  row/column index instead of rebuilding per pair;
* cross-Grams ``K(Z_test, Z)`` and stable k-NN neighbour orderings, keyed
  by the *identity* of the test block (``CrossValObjective`` materialises
  each fold's test matrix once, so repeated predicts see the same array
  object);
* label-dependent sufficient statistics for naive Bayes (class counts,
  discrete-level frequency tables, per-class means/variances, KDE sample
  groups, Silverman factors) and the discriminant family (class means,
  pooled scatter, per-class covariances) keyed by the identity of ``y``,
  so ``laplace``/``adjust``/``nu``/``gamma``/``lambda`` candidates only
  redo the smoothing or shrinkage arithmetic.

**Equality contract.**  The cold path and the cached path are the *same
code*: a classifier always talks to a ``Substrate`` — the shared registry
entry when its training matrix was registered (:func:`share_substrate`),
or a private throwaway instance otherwise.  Every cached quantity is
produced by exactly the expression the classifiers used per-candidate in
the seed, so a cache hit returns a bit-identical array to what a cold fit
would compute (enforced by ``tests/test_substrate_cache.py``).

**Lifetime.**  Like the presort registry, entries are weak: the registry
maps ``id(X)`` to a weakly-referenced :class:`Substrate` validated with an
``is`` check (a recycled id can never alias a different matrix), and the
caller keeps the returned handle alive — ``CrossValObjective`` pins one
per fold, so the caches live exactly as long as the objective does.

**Thread safety.**  All lazy computation happens under a per-substrate
re-entrant lock, so concurrent fits on the same fold (``n_jobs > 1``
thread pools) never duplicate work or observe half-built caches.  Cached
arrays are marked read-only before they are shared across models.

See DESIGN.md ("Shared fold-substrate cache").
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "Substrate",
    "NBStats",
    "RDAStats",
    "EigenFactors",
    "kernel_matrix",
    "stable_topk",
    "share_substrate",
    "shared_substrate_for",
    "substrate_for",
    "pin_block",
    "block_pinned",
]

#: Gram matrices are O(n^2) each; keep only the most recent kernel
#: parameterisations (SMAC revisits the incumbent's kernel params far more
#: often than it spreads across many).
_GRAM_CACHE_MAX = 4
#: Cross-Grams / neighbour orderings per test block; an objective predicts
#: on one test block per fold, plus the occasional validation matrix.
_CROSS_CACHE_MAX = 4
_NEIGHBOR_CACHE_MAX = 4
#: Label-keyed statistic bundles; a fold has one ``y`` in practice.
_LABEL_CACHE_MAX = 4
#: Per-(y, lambda) RDA eigendecompositions; SMAC's lambda sweep revisits a
#: handful of values around the incumbent, each O(k d^3) to factor.
_EIG_CACHE_MAX = 8
#: Neighbour orderings are cached up to at least this many neighbours so
#: every ``k`` candidate of the KNN space (1..50) slices one cached
#: ordering.  Slicing the first ``k`` columns of a deeper stable top-k is
#: identical to computing the top-k directly.
_NEIGHBOR_K_FLOOR = 50
#: Test-row chunk for the distance scan (bounds the (chunk, n_train)
#: distance block exactly like the seed KNN predict loop did).
_DISTANCE_CHUNK = 256


def kernel_matrix(
    A: np.ndarray, B: np.ndarray, kernel: str, gamma: float, degree: int, coef0: float
) -> np.ndarray:
    """e1071's four kernels between the rows of ``A`` and ``B``."""
    inner = A @ B.T
    if kernel == "linear":
        return inner
    if kernel == "radial":
        a2 = (A**2).sum(axis=1)[:, None]
        b2 = (B**2).sum(axis=1)[None, :]
        return np.exp(-gamma * np.clip(a2 + b2 - 2 * inner, 0.0, None))
    if kernel == "polynomial":
        return (gamma * inner + coef0) ** degree
    if kernel == "sigmoid":
        return np.tanh(gamma * inner + coef0)
    raise ConfigurationError(f"unknown kernel {kernel!r}")


def stable_topk(d2: np.ndarray, k: int) -> np.ndarray:
    """First ``k`` columns of ``argsort(d2, axis=1, kind="stable")`` per row.

    ``argpartition`` finds the k-th smallest value per row in O(n); every
    index with a strictly smaller value is in the top-k, and boundary ties
    are resolved exactly as a stable full sort would — ascending index.
    Only the candidate set (``k`` plus boundary ties) is stably sorted, so
    the tail sort is O(k log k) per row instead of O(n log n).
    """
    m, n = d2.shape
    k = min(int(k), n)
    if m == 0 or k == 0:
        return np.empty((m, k), dtype=np.intp)
    if k >= n:
        return np.argsort(d2, axis=1, kind="stable")[:, :k]
    cut = np.partition(d2, k - 1, axis=1)[:, k - 1 : k]
    mask = d2 <= cut
    counts = mask.sum(axis=1)
    rows, cols = np.nonzero(mask)  # row-major: cols ascend within each row
    max_c = int(counts.max())
    offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
    slot = np.arange(rows.size) - offsets[rows]
    cand = np.full((m, max_c), n, dtype=np.intp)
    cand[rows, slot] = cols
    vals = np.full((m, max_c), np.inf)
    vals[rows, slot] = d2[rows, cols]
    # Stable sort over candidates: equal distances keep slot order, which
    # is ascending training index — the full stable argsort's tie-break.
    local = np.argsort(vals, axis=1, kind="stable")[:, :k]
    return np.take_along_axis(cand, local, axis=1)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


class _IdentityCache:
    """Tiny LRU keyed by (object identity, hashable extra); strong refs.

    Lookup validates the stored key object with ``is`` so a recycled id
    can never alias.  Capacity is small (fold-scale working sets), so a
    linear scan beats any hashing scheme.
    """

    __slots__ = ("cap", "_items")

    def __init__(self, cap: int):
        self.cap = cap
        self._items: list[tuple[object, object, object]] = []

    def get(self, obj: object, extra: object) -> object | None:
        for i, (o, e, value) in enumerate(self._items):
            if o is obj and e == extra:
                if i:
                    self._items.insert(0, self._items.pop(i))
                return value
        return None

    def put(self, obj: object, extra: object, value: object) -> None:
        for i, (o, e, _) in enumerate(self._items):
            if o is obj and e == extra:
                del self._items[i]
                break
        self._items.insert(0, (obj, extra, value))
        del self._items[self.cap :]

    # Identity keys are meaningless in another process, so caches cross
    # pickling (process-backend results) empty and rebuild lazily.
    def __getstate__(self) -> int:
        return self.cap

    def __setstate__(self, cap: int) -> None:
        self.cap = cap
        self._items = []


@dataclass(frozen=True)
class NBStats:
    """Hyperparameter-independent naive-Bayes state of one ``(X, y)``."""

    counts: np.ndarray                       # (k,) int64 class counts
    discrete_cols: tuple[int, ...]
    tables: dict[int, tuple[np.ndarray, np.ndarray]]  # col -> (levels, raw counts)
    continuous_cols: tuple[int, ...]
    means: np.ndarray                        # (k, n_cont)
    stds: np.ndarray                         # (k, n_cont), clamped
    silverman: np.ndarray                    # (k, n_cont); 0 where class empty
    samples: tuple[dict[int, np.ndarray], ...]  # per-class KDE sample columns
    # Per-test-block Gaussian log-density totals (k, m); they depend only
    # on the cached moments, so every ``laplace`` candidate shares them.
    # Living on the stats bundle ties the cache's lifetime to its inputs.
    dens_cache: "_IdentityCache" = field(
        default_factory=lambda: _IdentityCache(_CROSS_CACHE_MAX), compare=False
    )


@dataclass(frozen=True)
class RDAStats:
    """Per-class and pooled covariance state for Friedman's RDA."""

    counts: np.ndarray                       # (k,) int64
    means: np.ndarray                        # (k, d)
    class_covs: tuple[np.ndarray, ...]       # k read-only (d, d) matrices
    pooled: np.ndarray                       # (d, d) read-only


@dataclass(frozen=True)
class EigenFactors:
    """Symmetric eigendecomposition of one (scatter/covariance) matrix.

    The discriminant family's shrinkage and ridge terms are diagonal in
    this eigenbasis (LDA's divisor, RDA's trace-preserving ``gamma`` mix,
    the predict-side ridge), so every shrinkage candidate reuses one
    O(d^3) factorisation and does O(d) arithmetic on ``evals`` instead of
    re-solving a dense system per class per candidate.
    """

    evals: np.ndarray                        # (d,) ascending, read-only
    evecs: np.ndarray                        # (d, d) orthonormal, read-only
    trace: float                             # np.trace of the factored matrix
    # Per-test-block centred projections ``(X_other - mean) @ evecs``;
    # they are gamma/method-independent, so candidates share them.
    proj_cache: "_IdentityCache" = field(
        default_factory=lambda: _IdentityCache(_CROSS_CACHE_MAX), compare=False
    )


class Substrate:
    """Lazily-computed hyperparameter-independent state of one matrix.

    Instances come from :func:`substrate_for`: the shared registry entry
    when ``X`` was registered (every HPO candidate on that fold hits the
    same caches), or a private instance that lives and dies with a single
    model otherwise.  Either way the computations are identical — sharing
    only changes how often they run.
    """

    __slots__ = (
        "X",
        "_lock",
        "_moments",
        "_Z",
        "_train_sq",
        "_levels",
        "_grams",
        "_gram_order",
        "_cross",
        "_neighbors",
        "_counts",
        "_means",
        "_pooled",
        "_nb",
        "_rda",
        "_lda_eig",
        "_rda_eig",
        "__weakref__",
    )

    def __init__(self, X: np.ndarray):
        self.X = np.asarray(X, dtype=np.float64)
        self._lock = threading.RLock()
        self._moments: tuple[np.ndarray, np.ndarray] | None = None
        self._Z: np.ndarray | None = None
        self._train_sq: np.ndarray | None = None
        self._levels: dict[int, list[np.ndarray | None]] = {}
        self._grams: dict[tuple, np.ndarray] = {}
        self._gram_order: list[tuple] = []
        self._cross = _IdentityCache(_CROSS_CACHE_MAX)
        self._neighbors = _IdentityCache(_NEIGHBOR_CACHE_MAX)
        self._counts = _IdentityCache(_LABEL_CACHE_MAX)
        self._means = _IdentityCache(_LABEL_CACHE_MAX)
        self._pooled = _IdentityCache(_LABEL_CACHE_MAX)
        self._nb = _IdentityCache(_LABEL_CACHE_MAX)
        self._rda = _IdentityCache(_LABEL_CACHE_MAX)
        self._lda_eig = _IdentityCache(_LABEL_CACHE_MAX)
        self._rda_eig = _IdentityCache(_EIG_CACHE_MAX)

    # Fitted models keep a substrate reference for predict-side caches; a
    # process-backend worker therefore pickles substrates back with its
    # results.  Only the matrix crosses the boundary — the lock is not
    # picklable and every cache rebuilds lazily (and bit-identically, since
    # cached and cold paths are the same code).
    def __getstate__(self) -> dict:
        return {"X": self.X}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["X"])

    # ------------------------------------------------------- standardization
    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Column mean and clamped standard deviation, computed once."""
        with self._lock:
            if self._moments is None:
                mean = self.X.mean(axis=0)
                scale = self.X.std(axis=0)
                scale[scale < 1e-12] = 1.0
                self._moments = (_read_only(mean), _read_only(scale))
            return self._moments

    def standardized(self) -> np.ndarray:
        """``(X - mean) / scale``, shared read-only across candidates."""
        with self._lock:
            if self._Z is None:
                mean, scale = self.moments()
                self._Z = _read_only((self.X - mean) / scale)
            return self._Z

    def standardize(self, X_other: np.ndarray) -> np.ndarray:
        """Another matrix standardized by *this* matrix's moments."""
        mean, scale = self.moments()
        return (X_other - mean) / scale

    # -------------------------------------------------------------- kernels
    def gram(self, kernel: str, gamma: float, degree: int, coef0: float) -> np.ndarray:
        """Full-fold Gram ``K(Z, Z)`` for one kernel parameterisation."""
        key = (kernel, float(gamma), int(degree), float(coef0))
        with self._lock:
            hit = self._grams.get(key)
            if hit is None:
                Z = self.standardized()
                hit = _read_only(kernel_matrix(Z, Z, *key))
                self._grams[key] = hit
                self._gram_order.append(key)
                while len(self._gram_order) > _GRAM_CACHE_MAX:
                    self._grams.pop(self._gram_order.pop(0), None)
            else:
                self._gram_order.remove(key)
                self._gram_order.append(key)
            return hit

    def cross_gram(
        self, X_other: np.ndarray, kernel: str, gamma: float, degree: int, coef0: float
    ) -> np.ndarray:
        """``K(Z_other, Z)``, cached by the identity of ``X_other``."""
        key = (kernel, float(gamma), int(degree), float(coef0))
        with self._lock:
            if not self._cacheable(X_other):
                Z_other = self.standardize(X_other)
                return kernel_matrix(Z_other, self.standardized(), *key)
            hit = self._cross.get(X_other, key)
            if hit is None:
                Z_other = self.standardize(X_other)
                hit = _read_only(kernel_matrix(Z_other, self.standardized(), *key))
                self._cross.put(X_other, key, hit)
            return hit

    def _cacheable(self, X_other: np.ndarray) -> bool:
        """Whether predict-side results for ``X_other`` may be cached.

        Identity keying is only sound for arrays whose contents are
        stable: this matrix itself, or a block explicitly pinned with
        :func:`pin_block` (``CrossValObjective`` pins its fold test
        blocks).  Anything else — e.g. a caller-owned buffer refilled in
        place between predicts — is recomputed per call, exactly like the
        seed code did.
        """
        return X_other is self.X or block_pinned(X_other)

    # ------------------------------------------------------------ neighbours
    def neighbors(self, X_other: np.ndarray, k: int) -> np.ndarray:
        """First-k stable neighbour ordering of ``X_other`` in ``X``.

        Row ``i`` lists the training indices of the ``k`` nearest rows to
        ``X_other[i]`` under standardized squared-Euclidean distance, ties
        broken by training order — exactly the first ``k`` columns of a
        stable full argsort.  The ordering is cached per test block up to
        ``max(k, 50)`` neighbours, so every ``k`` candidate after the
        first is an O(1) slice.
        """
        n = self.X.shape[0]
        k = min(int(k), n)
        with self._lock:
            if not self._cacheable(X_other):
                return self._neighbor_order(X_other, k)
            entry = self._neighbors.get(X_other, None)
            if entry is not None and entry.shape[1] >= k:
                return entry[:, :k]
            k_cache = min(n, max(k, _NEIGHBOR_K_FLOOR))
            order = self._neighbor_order(X_other, k_cache)
            self._neighbors.put(X_other, None, _read_only(order))
            return order[:, :k]

    def _neighbor_order(self, X_other: np.ndarray, k: int) -> np.ndarray:
        Z = self.standardized()
        if self._train_sq is None:
            self._train_sq = _read_only((Z**2).sum(axis=1))
        Z_other = self.standardize(X_other)
        out = np.empty((Z_other.shape[0], k), dtype=np.intp)
        for start in range(0, Z_other.shape[0], _DISTANCE_CHUNK):
            block = Z_other[start : start + _DISTANCE_CHUNK]
            d2 = (
                (block**2).sum(axis=1)[:, None]
                - 2.0 * block @ Z.T
                + self._train_sq[None, :]
            )
            out[start : start + _DISTANCE_CHUNK] = stable_topk(d2, k)
        return out

    # ------------------------------------------------------- label statistics
    def class_counts(self, y: np.ndarray, n_classes: int) -> np.ndarray:
        """``np.bincount(y, minlength=n_classes)`` keyed by ``y``'s identity."""
        with self._lock:
            hit = self._counts.get(y, n_classes)
            if hit is None:
                hit = _read_only(np.bincount(y, minlength=n_classes))
                self._counts.put(y, n_classes, hit)
            return hit

    def class_means(self, y: np.ndarray, n_classes: int) -> np.ndarray:
        """Per-class feature means (zero rows for absent classes)."""
        with self._lock:
            hit = self._means.get(y, n_classes)
            if hit is None:
                means = np.zeros((n_classes, self.X.shape[1]))
                for ki in range(n_classes):
                    rows = y == ki
                    if rows.any():
                        means[ki] = self.X[rows].mean(axis=0)
                hit = _read_only(means)
                self._means.put(y, n_classes, hit)
            return hit

    def pooled_scatter(self, y: np.ndarray, n_classes: int) -> np.ndarray:
        """``(X - means[y]).T @ (X - means[y])`` — LDA's pooled scatter."""
        with self._lock:
            hit = self._pooled.get(y, n_classes)
            if hit is None:
                centered = self.X - self.class_means(y, n_classes)[y]
                hit = _read_only(centered.T @ centered)
                self._pooled.put(y, n_classes, hit)
            return hit

    def column_levels(self, max_levels: int) -> list[np.ndarray | None]:
        """Per column: the sorted unique values when the column looks
        categorical (few distinct integral values), else ``None``.

        One ``np.sort(X, axis=0)`` serves every column: a column's unique
        values are its sorted run heads, exactly ``np.unique``'s.
        """
        with self._lock:
            hit = self._levels.get(max_levels)
            if hit is None:
                ordered = np.sort(self.X, axis=0)
                heads = np.ones(ordered.shape, dtype=bool)
                np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
                n_levels = heads.sum(axis=0)
                hit = []
                for j in range(self.X.shape[1]):
                    values = None
                    if n_levels[j] <= max_levels:
                        values = ordered[heads[:, j], j]
                        if not np.allclose(values, np.round(values)):
                            values = None
                    hit.append(None if values is None else _read_only(values))
                self._levels[max_levels] = hit
            return hit

    def nb_stats(self, y: np.ndarray, n_classes: int, max_levels: int) -> NBStats:
        """Naive-Bayes sufficient statistics; smoothing is left to the
        candidate (``laplace``/``adjust`` only touch cheap arithmetic)."""
        with self._lock:
            hit = self._nb.get(y, (n_classes, max_levels))
            if hit is None:
                hit = self._build_nb_stats(y, n_classes, max_levels)
                self._nb.put(y, (n_classes, max_levels), hit)
            return hit

    def _build_nb_stats(
        self, y: np.ndarray, k: int, max_levels: int
    ) -> NBStats:
        X = self.X
        counts = self.class_counts(y, k)
        levels_per_col = self.column_levels(max_levels)

        discrete_cols = tuple(
            j for j, lv in enumerate(levels_per_col) if lv is not None
        )
        tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for j in discrete_cols:
            # klaR truncates levels to integers and keys rows by them (last
            # level wins on truncation collisions); searchsorted
            # side="right" - 1 on the non-decreasing truncated levels is
            # that dict lookup, vectorized.  ``np.trunc`` is the int64 cast
            # wherever that cast is defined, and leaves levels beyond
            # +-2**63 as they are instead of wrapping them; adding 0.0 turns
            # its -0.0 into the cast's 0.0.
            int_levels = np.trunc(levels_per_col[j]) + 0.0
            idx = np.searchsorted(int_levels, np.trunc(X[:, j]), side="right") - 1
            raw = np.zeros((k, int_levels.size), dtype=np.float64)
            np.add.at(raw, (y, idx), 1.0)
            tables[j] = (_read_only(int_levels), _read_only(raw))

        continuous = tuple(
            j for j in range(X.shape[1]) if j not in discrete_cols
        )
        means = np.zeros((k, len(continuous)))
        stds = np.full((k, len(continuous)), 1e-6)
        silverman = np.zeros((k, len(continuous)))
        samples: tuple[dict[int, np.ndarray], ...] = tuple(
            dict() for _ in range(k)
        )
        # One C-contiguous (columns x rows) block per class: a row reduction
        # of it is the same pairwise sum as the per-column ``col.mean()``
        # and ``col.std()``, and its rows are the KDE samples.  ``take``
        # keeps the block C-contiguous; ``XT[:, rows]`` comes out strided,
        # and its row sums then group differently.
        XT = np.ascontiguousarray(X[:, list(continuous)].T)
        for ki in range(k):
            rows = np.flatnonzero(y == ki)
            if not rows.size:
                continue  # absent class: zero means, floor stds, no samples
            block = _read_only(XT.take(rows, axis=1))
            means[ki] = block.mean(axis=1)
            if rows.size > 1:
                stds[ki] = np.maximum(block.std(axis=1), 1e-6)
            silverman[ki] = 1.06 * stds[ki] * rows.size ** (-0.2)
            samples[ki].update(enumerate(block))
        return NBStats(
            counts=counts,
            discrete_cols=discrete_cols,
            tables=tables,
            continuous_cols=continuous,
            means=_read_only(means),
            stds=_read_only(stds),
            silverman=_read_only(silverman),
            samples=samples,
        )

    def nb_gaussian_loglik(self, X_other: np.ndarray, stats: NBStats) -> np.ndarray:
        """Summed Gaussian log-densities of ``X_other``'s continuous block
        under every class of ``stats`` — the ``laplace``-independent part
        of a naive-Bayes predict, cached per test block."""
        with self._lock:
            hit = (
                stats.dens_cache.get(X_other, None)
                if self._cacheable(X_other) else None
            )
            if hit is None:
                block = X_other[:, list(stats.continuous_cols)]
                mu = stats.means[:, None, :]
                sd = stats.stds[:, None, :]
                hit = _read_only(
                    (-0.5 * ((block[None, :, :] - mu) / sd) ** 2
                     - np.log(sd * np.sqrt(2 * np.pi))).sum(axis=2)
                )
                if self._cacheable(X_other):
                    stats.dens_cache.put(X_other, None, hit)
            return hit

    def release_grams(self) -> None:
        """Drop cached Gram matrices (the O(n²) state).

        One-shot fits on a *private* substrate call this once training is
        done: predict only needs the standardized matrix and moments, so
        a long-lived fitted model should not pin a full-fold Gram.
        Shared substrates keep theirs — that reuse is the whole point.
        """
        with self._lock:
            self._grams.clear()
            self._gram_order.clear()

    def rda_stats(self, y: np.ndarray, n_classes: int) -> RDAStats:
        """Per-class scatter matrices and their pooled combination."""
        with self._lock:
            hit = self._rda.get(y, n_classes)
            if hit is None:
                hit = self._build_rda_stats(y, n_classes)
                self._rda.put(y, n_classes, hit)
            return hit

    def _build_rda_stats(self, y: np.ndarray, k: int) -> RDAStats:
        X = self.X
        n, d = X.shape
        counts = self.class_counts(y, k)
        means = self.class_means(y, k)
        pooled = np.zeros((d, d))
        class_covs: list[np.ndarray] = []
        for ki in range(k):
            rows = y == ki
            if rows.any():
                centered = X[rows] - means[ki]
                scatter = centered.T @ centered
                pooled += scatter
                denom = max(int(rows.sum()) - 1, 1)
                class_covs.append(_read_only(scatter / denom))
            else:
                class_covs.append(_read_only(np.eye(d)))
        pooled /= max(n - k, 1)
        return RDAStats(
            counts=counts,
            means=means,
            class_covs=tuple(class_covs),
            pooled=_read_only(pooled),
        )

    # --------------------------------------------------- eigendecompositions
    def lda_eig(self, y: np.ndarray, n_classes: int) -> EigenFactors:
        """Eigendecomposition of the pooled scatter, shared by every LDA
        ``method``/divisor candidate (``moment`` and ``mle`` differ only by
        a scalar on the eigenvalues)."""
        with self._lock:
            hit = self._lda_eig.get(y, n_classes)
            if hit is None:
                scatter = self.pooled_scatter(y, n_classes)
                evals, evecs = np.linalg.eigh(scatter)
                hit = EigenFactors(
                    evals=_read_only(evals),
                    evecs=_read_only(evecs),
                    trace=float(np.trace(scatter)),
                )
                self._lda_eig.put(y, n_classes, hit)
            return hit

    def rda_eig(
        self, y: np.ndarray, n_classes: int, lam: float
    ) -> tuple[EigenFactors, ...]:
        """Per-class eigendecompositions of the ``lambda``-mixed covariance
        ``(1-lam) S_k + lam S_pooled``.

        Keyed by ``(y, lam)``: the ``gamma`` shrink and the predict ridge
        are trace-preserving diagonal updates in this basis, so every
        ``gamma`` candidate at the same ``lambda`` — SMAC's most common
        revisit pattern around an incumbent — reuses these factors.
        """
        with self._lock:
            hit = self._rda_eig.get(y, (n_classes, float(lam)))
            if hit is None:
                stats = self.rda_stats(y, n_classes)
                factors = []
                for ki in range(n_classes):
                    cov = (1 - lam) * stats.class_covs[ki] + lam * stats.pooled
                    evals, evecs = np.linalg.eigh(cov)
                    factors.append(
                        EigenFactors(
                            evals=_read_only(evals),
                            evecs=_read_only(evecs),
                            trace=float(np.trace(cov)),
                        )
                    )
                hit = tuple(factors)
                self._rda_eig.put(y, (n_classes, float(lam)), hit)
            return hit

    def eig_projection(
        self,
        X_other: np.ndarray,
        mean: np.ndarray,
        factors: EigenFactors,
        tag: object,
    ) -> np.ndarray:
        """``(X_other - mean) @ evecs``, cached per pinned test block.

        ``tag`` disambiguates projections that share one factorisation but
        centre on different means (LDA's per-class means on the pooled
        factors).
        """
        with self._lock:
            if not self._cacheable(X_other):
                return (X_other - mean) @ factors.evecs
            hit = factors.proj_cache.get(X_other, tag)
            if hit is None:
                hit = _read_only((X_other - mean) @ factors.evecs)
                factors.proj_cache.put(X_other, tag, hit)
            return hit


# ---------------------------------------------------------- shared registry
# CrossValObjective pins one substrate per fold here so every non-tree HPO
# candidate evaluated on that fold reuses it.  Keys are array object
# identities; entries are weak so a dying objective releases its caches.
_SHARED: dict[int, "weakref.ref[Substrate]"] = {}
_SHARED_LOCK = threading.Lock()


def share_substrate(X: np.ndarray) -> Substrate:
    """Register ``X`` for substrate sharing; keep the returned handle alive.

    Everything inside is computed lazily on first use, so registering
    folds whose families never look anything up costs nothing.
    """
    X = np.asarray(X)
    with _SHARED_LOCK:
        existing = _SHARED.get(id(X))
        entry = existing() if existing is not None else None
        if entry is not None and entry.X is X:
            return entry
        entry = Substrate(X)
        if entry.X is not X:
            # ``X`` was not float64; the converted copy has no stable
            # identity, so the entry cannot be shared meaningfully.
            return entry
        key = id(X)
        _SHARED[key] = weakref.ref(
            entry, lambda _ref, _key=key: _SHARED.pop(_key, None)
        )
        return entry


def shared_substrate_for(X: np.ndarray) -> Substrate | None:
    """The shared substrate registered for this exact array object, if any."""
    ref = _SHARED.get(id(X))
    entry = ref() if ref is not None else None
    if entry is not None and entry.X is X:
        return entry
    return None


def substrate_for(X: np.ndarray) -> Substrate:
    """The substrate to fit with: the shared one, or a private throwaway.

    This is the standard entry point for every non-tree fit.  A registry
    hit means every candidate on this fold shares one set of caches; a
    miss builds a private substrate that lives and dies with the model —
    the same code either way, so cached and cold fits are bit-identical.
    """
    shared = shared_substrate_for(X)
    if shared is not None:
        return shared
    return Substrate(X)


# ------------------------------------------------------------ pinned blocks
# Predict-side caches key on the identity of the caller's matrix, which is
# only sound when its contents are stable.  Stability is declared, never
# assumed: CrossValObjective pins each fold's test block here for the
# objective's lifetime.  Entries are weak, like the substrate registry.
class _PinnedBlock:
    __slots__ = ("X", "__weakref__")

    def __init__(self, X: np.ndarray):
        self.X = X


_PINNED: dict[int, "weakref.ref[_PinnedBlock]"] = {}


def pin_block(X: np.ndarray) -> _PinnedBlock:
    """Declare ``X`` content-stable for predict-side caching; keep the
    returned handle alive for as long as that promise holds."""
    with _SHARED_LOCK:
        existing = _PINNED.get(id(X))
        entry = existing() if existing is not None else None
        if entry is not None and entry.X is X:
            return entry
        entry = _PinnedBlock(X)
        key = id(X)
        _PINNED[key] = weakref.ref(entry, lambda _ref, _key=key: _PINNED.pop(_key, None))
        return entry


def block_pinned(X: np.ndarray) -> bool:
    """Whether ``X`` is currently pinned (validated by identity)."""
    ref = _PINNED.get(id(X))
    entry = ref() if ref is not None else None
    return entry is not None and entry.X is X
