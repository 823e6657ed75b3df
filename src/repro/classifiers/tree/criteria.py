"""Split-quality criteria shared by the tree family.

All functions operate on *count* arrays rather than label vectors so the
split search can evaluate every threshold of a column with one cumulative
sum.  ``left_counts``/``right_counts`` have shape ``(n_thresholds, k)``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "gini",
    "entropy",
    "children_impurity",
    "children_impurity_sized",
    "gain_ratio",
    "impurity_function",
]


#: Widest trailing axis :func:`_sum_classes` adds with explicit slices.
#: numpy reduces fewer than 8 elements strictly left to right, so below
#: this width slice adds give the reduction's bits without its per-row
#: dispatch; from 8 on it sums pairwise and the reduction is kept.
_SLICE_SUM_MAX = 7


def _sum_classes(p: np.ndarray) -> np.ndarray:
    """``p.sum(axis=-1)``, bit for bit, fast for a tiny class axis."""
    k = p.shape[-1]
    if k > _SLICE_SUM_MAX or k < 2:
        return p.sum(axis=-1)
    total = p[..., 0] + p[..., 1]
    for i in range(2, k):
        total += p[..., i]
    return total


def gini(
    counts: np.ndarray,
    totals: np.ndarray | None = None,
    consume: bool = False,
) -> np.ndarray:
    """Gini impurity of each row of a count matrix; 0 for empty rows.

    ``totals`` (broadcastable, trailing axis kept) may be supplied when the
    caller already knows the row sums — e.g. the presorted split scan,
    where unit-weight totals are just positions — saving a reduction with
    bit-identical results.  ``consume=True`` additionally lets the
    computation reuse ``counts`` as scratch (the caller promises the array
    is dead); values are identical either way.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if totals is None:
        totals = counts.sum(axis=-1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    p = np.divide(counts, safe, out=counts) if consume else counts / safe
    np.multiply(p, p, out=p)  # p**2, without a second full-size temporary
    impurity = 1.0 - _sum_classes(p)
    return np.where(totals[..., 0] > 0, impurity, 0.0)


def entropy(
    counts: np.ndarray,
    totals: np.ndarray | None = None,
    consume: bool = False,
) -> np.ndarray:
    """Shannon entropy (bits) of each row of a count matrix; 0 for empty rows."""
    counts = np.asarray(counts, dtype=np.float64)
    if totals is None:
        totals = counts.sum(axis=-1, keepdims=True)
    safe = np.where(totals > 0, totals, 1.0)
    p = np.divide(counts, safe, out=counts) if consume else counts / safe
    logp = np.zeros_like(p)
    np.log2(p, out=logp, where=p > 0)
    return -(p * logp).sum(axis=-1)


def impurity_function(criterion: str):
    """Resolve a criterion name to its impurity function.

    ``gain_ratio`` shares the entropy impurity; the ratio normalisation is
    applied in :func:`children_impurity`.
    """
    if criterion == "gini":
        return gini
    if criterion in ("entropy", "gain_ratio"):
        return entropy
    raise ConfigurationError(f"unknown criterion {criterion!r}")


def children_impurity(
    left_counts: np.ndarray,
    right_counts: np.ndarray,
    criterion: str,
    parent_impurity: float | np.ndarray | None = None,
) -> np.ndarray:
    """Score candidate binary splits; *lower is better* for every criterion.

    For ``gini``/``entropy`` this is the size-weighted child impurity.  For
    ``gain_ratio`` it is ``-(information gain / split info)`` so that the
    minimisation framing is preserved; splits with degenerate split info
    score 0 (never preferred).  ``parent_impurity`` may be a scalar or any
    array broadcastable against the leading count dimensions (the batched
    level scan passes one value per frontier node).
    """
    impurity = impurity_function(criterion)
    n_left = left_counts.sum(axis=-1)
    n_right = right_counts.sum(axis=-1)
    total = n_left + n_right
    safe_total = np.where(total > 0, total, 1.0)
    weighted = (
        n_left * impurity(left_counts) + n_right * impurity(right_counts)
    ) / safe_total
    if criterion != "gain_ratio":
        return weighted

    if parent_impurity is None:
        parent = impurity((left_counts + right_counts))
    else:
        parent = np.broadcast_to(
            np.asarray(parent_impurity, dtype=np.float64), weighted.shape
        )
    return _negative_gain_ratio(weighted, parent, n_left, n_right, safe_total)


def _negative_gain_ratio(
    weighted: np.ndarray,
    parent: np.ndarray,
    n_left: np.ndarray,
    n_right: np.ndarray,
    safe_total: np.ndarray,
) -> np.ndarray:
    """``-(information gain / split info)``, shared by both scoring paths.

    Numerically delicate (where-masked log2, 1e-12 degenerate-split-info
    guard) and part of the engine's bit-for-bit equality contract, so there
    is exactly one copy.
    """
    gain = parent - weighted
    pl = n_left / safe_total
    pr = n_right / safe_total
    log_pl = np.zeros_like(pl)
    log_pr = np.zeros_like(pr)
    np.log2(pl, out=log_pl, where=pl > 0)
    np.log2(pr, out=log_pr, where=pr > 0)
    split_info = -(pl * log_pl + pr * log_pr)
    ratio = np.where(
        split_info > 1e-12, gain / np.where(split_info > 1e-12, split_info, 1.0), 0.0
    )
    return -ratio


def children_impurity_sized(
    left_counts: np.ndarray,
    right_counts: np.ndarray,
    n_left: np.ndarray,
    n_right: np.ndarray,
    criterion: str,
    parent_impurity: float | np.ndarray | None = None,
    consume: bool = False,
) -> np.ndarray:
    """:func:`children_impurity` with caller-supplied child sizes.

    The presorted unit-weight scan knows every candidate split's child
    sizes for free (they are sorted positions), so it skips the four
    count-matrix reductions the generic path performs.  Arithmetic is
    otherwise identical — supplied sizes must equal the count-row sums
    exactly (true for unit weights, where both are exact small integers),
    making the scores bit-for-bit the generic path's.  ``consume=True``
    lets the impurity computation use the count matrices as scratch.
    """
    impurity = impurity_function(criterion)
    total = n_left + n_right
    safe_total = np.where(total > 0, total, 1.0)
    parent = None
    if criterion == "gain_ratio" and parent_impurity is None:
        # Before the impurity calls: consume=True may reuse the counts.
        parent = impurity(left_counts + right_counts)
    weighted = (
        n_left * impurity(left_counts, n_left[..., None], consume)
        + n_right * impurity(right_counts, n_right[..., None], consume)
    ) / safe_total
    if criterion != "gain_ratio":
        return weighted

    if parent is None:
        parent = np.broadcast_to(
            np.asarray(parent_impurity, dtype=np.float64), weighted.shape
        )
    return _negative_gain_ratio(weighted, parent, n_left, n_right, safe_total)


def gain_ratio(left_counts: np.ndarray, right_counts: np.ndarray) -> np.ndarray:
    """Convenience wrapper: the (positive) gain ratio of candidate splits."""
    return -children_impurity(left_counts, right_counts, "gain_ratio")
