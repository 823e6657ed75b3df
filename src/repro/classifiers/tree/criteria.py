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
    "children_impurity_class_major",
    "gain_ratio",
    "impurity_function",
]


#: Widest class axis :func:`_sum_classes` adds with explicit slices.
#: numpy reduces fewer than 8 elements strictly left to right, so below
#: this width slice adds give the reduction's bits without its per-row
#: dispatch; from 8 on it sums pairwise and the reduction is kept.
_SLICE_SUM_MAX = 7


def _sum_classes(p: np.ndarray) -> np.ndarray:
    """Class sums of a class-major ``(k, ...)`` array.

    Bit for bit the reduction ``.sum(axis=-1)`` of the same values held
    C-contiguous with the classes trailing: slice adds up to
    ``_SLICE_SUM_MAX`` classes, that reduction itself above.
    """
    k = p.shape[0]
    if k > _SLICE_SUM_MAX or k < 2:
        return np.ascontiguousarray(np.moveaxis(p, 0, -1)).sum(axis=-1)
    total = p[0] + p[1]
    for i in range(2, k):
        total += p[i]
    return total


def _gini_of(p: np.ndarray) -> np.ndarray:
    """Gini impurity from class-major probabilities (``p`` is consumed)."""
    np.multiply(p, p, out=p)
    return 1.0 - _sum_classes(p)


def _entropy_of(p: np.ndarray) -> np.ndarray:
    """Entropy (bits) from class-major probabilities; empty classes add 0."""
    plogp = np.zeros_like(p)
    np.log2(p, out=plogp, where=p > 0)
    np.multiply(p, plogp, out=plogp)
    return -_sum_classes(plogp)


def _class_major(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Class-major probabilities of trailing-axis ``counts`` and row totals.

    Empty rows divide by 1, so their probabilities are 0.
    """
    counts = np.asarray(counts, dtype=np.float64)
    totals = counts.sum(axis=-1)
    safe = np.where(totals > 0, totals, 1.0)
    return np.moveaxis(counts, -1, 0) / safe, totals


def gini(counts: np.ndarray) -> np.ndarray:
    """Gini impurity of each row of a count matrix; 0 for empty rows."""
    p, totals = _class_major(counts)
    return np.where(totals > 0, _gini_of(p), 0.0)


def entropy(counts: np.ndarray) -> np.ndarray:
    """Shannon entropy (bits) of each row of a count matrix; 0 for empty rows."""
    return _entropy_of(_class_major(counts)[0])


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


def children_impurity_class_major(
    left_counts: np.ndarray,
    class_totals: np.ndarray,
    n_left: np.ndarray,
    n_right: np.ndarray,
    node_totals: np.ndarray,
    criterion: str,
    parent_impurity: np.ndarray,
) -> np.ndarray:
    """:func:`children_impurity` of a class-major integer-count scan.

    ``left_counts`` is ``(k, ...)``: rows ``0 .. k - 2`` hold each
    candidate split's left class counts; row ``k - 1`` is scratch, filled
    here with ``n_left`` minus the others (exact: every count is a small
    integer).  Right counts are ``class_totals - left_counts``; sizes,
    ``node_totals`` and ``parent_impurity`` broadcast against one class
    row.  The counts are used as scratch.  Wherever ``n_left, n_right >=
    1`` the scores equal :func:`children_impurity` on the same counts bit
    for bit; elsewhere they are unguarded (nan) and must be masked.
    """
    k = left_counts.shape[0]
    last = np.subtract(n_left, left_counts[0], out=left_counts[k - 1])
    for i in range(1, k - 1):
        last -= left_counts[i]
    right_counts = class_totals - left_counts
    impurity = _gini_of if criterion == "gini" else _entropy_of
    with np.errstate(divide="ignore", invalid="ignore"):
        weighted = (
            n_left * impurity(np.divide(left_counts, n_left, out=left_counts))
            + n_right * impurity(np.divide(right_counts, n_right, out=right_counts))
        ) / node_totals
        if criterion != "gain_ratio":
            return weighted
        return _negative_gain_ratio(
            weighted, parent_impurity, n_left, n_right, node_totals
        )


def gain_ratio(left_counts: np.ndarray, right_counts: np.ndarray) -> np.ndarray:
    """Convenience wrapper: the (positive) gain ratio of candidate splits."""
    return -children_impurity(left_counts, right_counts, "gain_ratio")
