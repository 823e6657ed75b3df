"""The 25 dataset meta-features.

"a list of 25 meta-features are extracted from the training split describing
the dataset characteristics. Examples of these features include number of
instances, number of classes, skewness and kurtosis of numerical features,
and symbols of categorical features."

Extraction is memoized on a **content digest** of the dataset (bytes of
``X``, ``y`` and the categorical mask): repeated ``POST /experiments`` on
the same dataset — or any re-run over an identical training split — skips
the skewness/kurtosis recomputation entirely.  Content addressing makes
invalidation automatic (any changed cell changes the digest, so a stale
entry can never be returned); a bounded LRU caps memory and
:func:`clear_metafeature_cache` empties it explicitly.  The cached
:class:`MetaFeatures` is a frozen dataclass, safe to share across threads.

The exact 25 implemented here cover the four groups the paper names:

* simple counts and ratios (instances, features, classes, numeric vs
  categorical mix, dimensionality, missing ratio) — 10 features,
* class-distribution statistics (entropy, min/max/mean/std class
  probability, imbalance ratio) — 6 features,
* moments of the numeric columns (min/max/mean/std of skewness and of
  kurtosis) — 8 features,
* symbol statistics of the categorical columns (mean symbols per
  categorical feature) — 1 feature.

The vector order is fixed (:data:`META_FEATURE_NAMES`) because knowledge-base
similarity search compares positionally.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields

import numpy as np

from repro.data.dataset import Dataset

__all__ = [
    "MetaFeatures",
    "extract_metafeatures",
    "META_FEATURE_NAMES",
    "dataset_content_digest",
    "clear_metafeature_cache",
]


@dataclass(frozen=True)
class MetaFeatures:
    """Fixed-order container of the 25 meta-features."""

    n_instances: float
    log_n_instances: float
    n_features: float
    log_n_features: float
    n_classes: float
    n_numeric: float
    n_categorical: float
    categorical_ratio: float
    dimensionality: float
    missing_ratio: float
    class_entropy: float
    class_prob_min: float
    class_prob_max: float
    class_prob_mean: float
    class_prob_std: float
    imbalance_ratio: float
    skewness_min: float
    skewness_max: float
    skewness_mean: float
    skewness_std: float
    kurtosis_min: float
    kurtosis_max: float
    kurtosis_mean: float
    kurtosis_std: float
    symbols_mean: float

    def to_vector(self) -> np.ndarray:
        """The 25 values in declaration order."""
        return np.array([getattr(self, f.name) for f in fields(self)], dtype=np.float64)

    def to_dict(self) -> dict[str, float]:
        """Name → value mapping (JSON-friendly, used by the knowledge base)."""
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, payload: dict[str, float]) -> "MetaFeatures":
        """Inverse of :meth:`to_dict`; ignores unknown keys, defaults to 0."""
        values = {f.name: float(payload.get(f.name, 0.0)) for f in fields(cls)}
        return cls(**values)

    @classmethod
    def from_vector(cls, vector: np.ndarray) -> "MetaFeatures":
        """Build from a 25-vector in declaration order."""
        names = [f.name for f in fields(cls)]
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (len(names),):
            raise ValueError(f"expected vector of shape ({len(names)},), got {vector.shape}")
        return cls(**dict(zip(names, map(float, vector))))


META_FEATURE_NAMES: tuple[str, ...] = tuple(f.name for f in fields(MetaFeatures))


def _skew_kurtosis(col: np.ndarray) -> tuple[float, float]:
    """Biased skewness and Fisher kurtosis of a 1-D float64 column: the
    bits of ``scipy.stats.skew``/``kurtosis`` (same moment arithmetic, same
    near-constant NaN guard) without their overhead or precision warning."""
    mean = col.mean()
    a0 = col - mean
    sq = a0**2
    m2 = sq.mean()
    if m2 <= (np.finfo(np.float64).eps * mean) ** 2:
        return np.nan, np.nan
    return (sq * a0).mean() / m2**1.5, (sq**2).mean() / m2**2.0 - 3


def _moment_stats(values: np.ndarray) -> tuple[float, float, float, float]:
    """(min, max, mean, std) of a 1-D statistic array; zeros when empty."""
    if values.size == 0:
        return 0.0, 0.0, 0.0, 0.0
    values = values[np.isfinite(values)]
    if values.size == 0:
        return 0.0, 0.0, 0.0, 0.0
    return (
        float(values.min()),
        float(values.max()),
        float(values.mean()),
        float(values.std()),
    )


# Digest-keyed LRU of extraction results.  Size 128 covers a busy job
# service cycling through a few dozen datasets; one entry is a 25-float
# dataclass, so the cache is a few KB.
_CACHE: "OrderedDict[str, MetaFeatures]" = OrderedDict()
_CACHE_LOCK = threading.Lock()
_CACHE_MAX = 128


def dataset_content_digest(ds: Dataset) -> str:
    """Content digest of everything extraction reads: X, y, the
    categorical mask, and their shapes/dtypes (captured by the header
    strings so transposed or re-typed data never collides)."""
    h = hashlib.blake2b(digest_size=16)
    X = np.ascontiguousarray(ds.X)
    y = np.ascontiguousarray(ds.y)
    mask = np.ascontiguousarray(ds.categorical_mask)
    h.update(f"{X.shape}:{X.dtype}|{y.shape}:{y.dtype}|{mask.shape}".encode())
    h.update(X.tobytes())
    h.update(y.tobytes())
    h.update(mask.tobytes())
    return h.hexdigest()


def clear_metafeature_cache() -> None:
    """Drop every memoized extraction result."""
    with _CACHE_LOCK:
        _CACHE.clear()


def extract_metafeatures(ds: Dataset, use_cache: bool = True) -> MetaFeatures:
    """Compute all 25 meta-features of a dataset (content-digest memoized).

    NaN cells are ignored column-wise; datasets with no numeric (or no
    categorical) columns get zeros for the corresponding statistic block,
    which keeps vectors comparable across heterogeneous corpora.  Pass
    ``use_cache=False`` to force recomputation (the result still lands in
    the cache).
    """
    digest = dataset_content_digest(ds)
    if use_cache:
        with _CACHE_LOCK:
            cached = _CACHE.get(digest)
            if cached is not None:
                _CACHE.move_to_end(digest)
                return cached
    result = _extract_metafeatures_uncached(ds)
    with _CACHE_LOCK:
        _CACHE[digest] = result
        _CACHE.move_to_end(digest)
        while len(_CACHE) > _CACHE_MAX:
            _CACHE.popitem(last=False)
    return result


def _extract_metafeatures_uncached(ds: Dataset) -> MetaFeatures:
    n, d = ds.n_instances, ds.n_features
    numeric_idx = ds.numeric_indices
    cat_idx = ds.categorical_indices

    # Hostile numerics guard: the extractor must stay warning-clean and
    # finite on any container a client can upload (±inf cells, all-NaN or
    # huge-scale columns, zero rows) — the REST layer exposes it directly
    # via GET /metafeatures before any validation gate.  np.errstate keeps
    # numpy's FP machinery quiet; degenerate statistics fill with zeros
    # explicitly rather than propagating inf/NaN into the 25-vector.
    with np.errstate(all="ignore"):
        probs = ds.class_distribution()
        probs = probs[np.isfinite(probs)] if probs.size else probs
        if probs.size == 0:
            probs = np.zeros(1)
        present = probs[probs > 0]
        entropy = float(-(present * np.log2(present)).sum()) if present.size else 0.0
        max_entropy = np.log2(ds.n_classes) if ds.n_classes > 1 else 1.0

        skews = []
        kurts = []
        for j in numeric_idx:
            col = ds.X[:, j]
            # isfinite (not just ~isnan): an inf cell would otherwise ride
            # into the moment sums and come back as NaN.
            col = col[np.isfinite(col)]
            if col.size >= 3 and np.ptp(col) > 1e-12:
                skew, kurt = _skew_kurtosis(col)
                skews.append(skew)
                kurts.append(kurt)
        skew_stats = _moment_stats(np.asarray(skews, dtype=np.float64))
        kurt_stats = _moment_stats(np.asarray(kurts, dtype=np.float64))

        cards = ds.category_cardinalities().astype(np.float64)
        symbols_mean = float(cards.mean()) if cards.size else 0.0

        return MetaFeatures(
            n_instances=float(n),
            log_n_instances=float(np.log(n)) if n > 0 else 0.0,
            n_features=float(d),
            log_n_features=float(np.log(d)) if d > 0 else 0.0,
            n_classes=float(ds.n_classes),
            n_numeric=float(numeric_idx.size),
            n_categorical=float(cat_idx.size),
            categorical_ratio=float(cat_idx.size / d) if d > 0 else 0.0,
            dimensionality=float(d / n) if n > 0 else 0.0,
            missing_ratio=ds.missing_ratio(),
            class_entropy=entropy / max_entropy,
            class_prob_min=float(probs.min()),
            class_prob_max=float(probs.max()),
            class_prob_mean=float(probs.mean()),
            class_prob_std=float(probs.std()),
            imbalance_ratio=float(probs.min() / probs.max()) if probs.max() > 0 else 0.0,
            skewness_min=skew_stats[0],
            skewness_max=skew_stats[1],
            skewness_mean=skew_stats[2],
            skewness_std=skew_stats[3],
            kurtosis_min=kurt_stats[0],
            kurtosis_max=kurt_stats[1],
            kurtosis_mean=kurt_stats[2],
            kurtosis_std=kurt_stats[3],
            symbols_mean=symbols_mean,
        )
