"""Dataset-similarity search and algorithm nomination.

The paper's selection rule weights two factors: (1) Euclidean distance
between the query's meta-features and every stored dataset's, and (2) "the
magnitude of the best performing algorithms on the similar dataset" — a
single very similar dataset's top-n algorithms can beat the single best
algorithm of n merely-close datasets.

:func:`weighted_nomination` implements that rule; :func:`distance_only_
nomination` is the ablation control that ranks algorithms purely by the
nearest dataset's leaderboard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Neighbor",
    "Nomination",
    "SimilarityIndex",
    "zscore_normaliser",
    "nearest_datasets",
    "weighted_nomination",
    "distance_only_nomination",
]


@dataclass(frozen=True)
class Neighbor:
    """One similar knowledge-base dataset."""

    dataset_id: int
    distance: float
    similarity: float


@dataclass
class Nomination:
    """A candidate algorithm with provenance and warm-start configurations."""

    algorithm: str
    score: float
    supporting_datasets: list[int] = field(default_factory=list)
    warm_configs: list[dict] = field(default_factory=list)


def zscore_normaliser(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means/stds for z-scoring meta-feature vectors.

    Degenerate columns get unit std so they contribute zero distance.  The
    std is ``matrix.std(axis=0)``'s own arithmetic.
    """
    mean = matrix.mean(axis=0)
    std = np.sqrt(np.square(matrix - mean).sum(axis=0) / matrix.shape[0])
    std[std < 1e-12] = 1.0
    return mean, std


def _top_k_stable(distances: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest distances, identical to the prefix of a
    full ``argsort(kind="stable")`` — ties broken by original position.

    ``argpartition`` finds the k-th smallest value in O(n); only the
    candidates at or below it are then stable-sorted, so the cost is
    O(n + k log k) instead of O(n log n).  Ties *at* the k-th value are
    handled by selecting every index with that distance (``flatnonzero``
    returns them in ascending position order) before truncating, which is
    exactly what the stable full sort would keep.
    """
    n = distances.shape[0]
    if k >= n:
        return np.argsort(distances, kind="stable")[:k]
    part = np.argpartition(distances, k - 1)
    kth = distances[part[k - 1]]
    candidates = np.flatnonzero(distances <= kth)
    order = candidates[np.argsort(distances[candidates], kind="stable")]
    return order[:k]


#: Rows per block of the fused z-score/distance passes: a block of the z
#: buffer (25 meta-features -> 200 KB) and its scratch stay in cache between
#: the passes over it, where whole-matrix passes stream 2 MB at 10k rows.
_BLOCK_ROWS = 1024


class SimilarityIndex:
    """Incrementally growable z-scored view of the stored meta-feature matrix.

    The raw float64 matrix lives in a capacity-doubling columnar buffer, so
    :meth:`append` is O(d) and never rebuilds state from the record store.
    The index is exact: the first query after any append recomputes the
    normaliser and re-z-scores every row into the existing z buffer, so
    query results are *numerically identical* to a cold rebuild of the index
    from scratch.  A query with no append since the last one reuses the z
    buffer as it is.

    The normaliser's mean comes from column sums kept on append: numpy's
    axis-0 sum of a C-contiguous matrix adds its rows in order to a zero
    start, so ``S += row`` per append followed by ``S / n`` is
    ``matrix.mean(axis=0)`` bit for bit.  The std's sum of squared
    deviations, the division by the std and the distances run over blocks
    of :data:`_BLOCK_ROWS` rows; a block's squares are summed below a carry
    row holding the previous blocks' total, which keeps the row order of
    one whole-matrix ``sum(axis=0)``.  A one-column matrix is the
    exception: numpy sums a contiguous column pairwise, not row by row, so
    it is reduced whole.
    """

    def __init__(self, stored_ids: list[int], stored_vectors: np.ndarray):
        matrix = np.ascontiguousarray(stored_vectors, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
        if len(stored_ids) != matrix.shape[0]:
            raise ValueError("stored_ids and stored_vectors disagree on row count")
        self._n = matrix.shape[0]
        self._d = matrix.shape[1]
        capacity = max(self._n, 8)
        self._raw = np.empty((capacity, self._d), dtype=np.float64)
        self._raw[: self._n] = matrix
        self._idbuf = np.empty(capacity, dtype=np.int64)
        self._idbuf[: self._n] = np.asarray(stored_ids, dtype=np.int64)
        self._zbuf = np.empty((capacity, self._d), dtype=np.float64)
        self._colsum = matrix.sum(axis=0)
        # Carry row + one block of squares or query differences.
        self._scratch = np.empty((_BLOCK_ROWS + 1, self._d), dtype=np.float64)
        self._renormalise()

    # ------------------------------------------------------------ properties
    @property
    def n(self) -> int:
        return self._n

    @property
    def ids(self) -> list[int]:
        """Stored dataset ids in insertion order."""
        return [int(i) for i in self._idbuf[: self._n]]

    # --------------------------------------------------------------- updates
    def _grow(self) -> None:
        capacity = max(2 * self._raw.shape[0], 8)
        raw = np.empty((capacity, self._d), dtype=np.float64)
        raw[: self._n] = self._raw[: self._n]
        ids = np.empty(capacity, dtype=np.int64)
        ids[: self._n] = self._idbuf[: self._n]
        # Not copied: the next query re-z-scores every row anyway.
        self._zbuf = np.empty((capacity, self._d), dtype=np.float64)
        self._raw, self._idbuf = raw, ids

    def append(self, dataset_id: int, vector: np.ndarray) -> None:
        """Add one stored dataset to the live index in O(d)."""
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self._d,):
            raise ValueError(f"expected vector of shape ({self._d},), got {vector.shape}")
        if self._n == self._raw.shape[0]:
            self._grow()
        self._raw[self._n] = vector
        self._idbuf[self._n] = int(dataset_id)
        self._colsum += vector
        self._n += 1

    def _renormalise(self) -> None:
        """Recompute the normaliser and write every row's deviation from
        the mean into the z buffer; the next query divides those rows by
        the std in the same row blocks as its distances."""
        n = self._n
        self._n_normalised = n
        self._undivided = True
        if n == 0:
            self.mean, self.std = np.zeros(self._d), np.ones(self._d)
            return
        if self._d > 1:
            self.mean, block_rows = self._colsum / n, _BLOCK_ROWS
        else:
            self.mean, block_rows = self._raw[:n].mean(axis=0), n
            if self._scratch.shape[0] <= n:
                self._scratch = np.empty((n + 1, 1), dtype=np.float64)
        scratch, total = self._scratch, None
        for start in range(0, n, block_rows):
            stop = min(start + block_rows, n)
            z = np.subtract(self._raw[start:stop], self.mean, out=self._zbuf[start:stop])
            if total is None:
                block = np.square(z, out=scratch[: stop - start])
            else:
                scratch[0] = total
                np.square(z, out=scratch[1: stop - start + 1])
                block = scratch[: stop - start + 1]
            total = block.sum(axis=0)
        std = np.sqrt(total / n)
        std[std < 1e-12] = 1.0
        self.std = std

    # ---------------------------------------------------------------- query
    def query(self, query: np.ndarray, k: int) -> list[Neighbor]:
        """The ``k`` nearest stored datasets by z-scored Euclidean distance.

        Similarity is ``1 / (1 + distance)``, a bounded monotone transform
        used as the weight of factor (1) in the nomination rule.
        """
        if self._n != self._n_normalised:
            self._renormalise()
        n = self._n
        if n == 0 or k <= 0:
            return []
        divide, self._undivided = self._undivided, False
        z_query = (np.asarray(query, dtype=np.float64) - self.mean) / self.std
        distances = np.empty(n)
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            z = self._zbuf[start:stop]
            if divide:
                np.divide(z, self.std, out=z)
            diff = np.subtract(z, z_query, out=self._scratch[: stop - start])
            np.square(diff, out=diff).sum(axis=1, out=distances[start:stop])
        np.sqrt(distances, out=distances)
        order = _top_k_stable(distances, k)
        return [
            Neighbor(
                dataset_id=int(self._idbuf[i]),
                distance=float(distances[i]),
                similarity=float(1.0 / (1.0 + distances[i])),
            )
            for i in order
        ]


def nearest_datasets(
    query: np.ndarray,
    stored_ids: list[int],
    stored_vectors: np.ndarray,
    k: int,
) -> list[Neighbor]:
    """One-shot convenience wrapper over :class:`SimilarityIndex`."""
    if stored_vectors.shape[0] == 0:
        return []
    return SimilarityIndex(stored_ids, stored_vectors).query(query, k)


def weighted_nomination(
    neighbors: list[Neighbor],
    leaderboards: dict[int, list[tuple[str, float, dict]]],
    n_algorithms: int,
    similarity_power: float = 2.0,
    max_warm_configs: int = 3,
) -> list[Nomination]:
    """Rank algorithms by similarity-weighted best performance.

    Parameters
    ----------
    leaderboards:
        ``dataset_id -> [(algorithm, accuracy, best_config), ...]`` — each
        stored dataset's per-algorithm best results.
    similarity_power:
        Exponent sharpening the similarity weight; >1 realises the paper's
        "prefer the top-n algorithms of one very similar dataset" bias.
    """
    scores: dict[str, float] = {}
    support: dict[str, list[int]] = {}
    configs: dict[str, list[tuple[float, dict]]] = {}
    for neighbor in neighbors:
        weight = neighbor.similarity**similarity_power
        for algorithm, accuracy, config in leaderboards.get(neighbor.dataset_id, []):
            scores[algorithm] = scores.get(algorithm, 0.0) + weight * accuracy
            support.setdefault(algorithm, []).append(neighbor.dataset_id)
            configs.setdefault(algorithm, []).append((weight * accuracy, config))

    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    nominations = []
    for algorithm, score in ranked[: max(n_algorithms, 0)]:
        best_first = sorted(configs[algorithm], key=lambda pair: -pair[0])
        warm = []
        seen: set[str] = set()
        for _, config in best_first:
            fingerprint = repr(sorted(config.items()))
            if fingerprint not in seen:
                warm.append(dict(config))
                seen.add(fingerprint)
            if len(warm) >= max_warm_configs:
                break
        nominations.append(
            Nomination(
                algorithm=algorithm,
                score=float(score),
                supporting_datasets=support[algorithm],
                warm_configs=warm,
            )
        )
    return nominations


def distance_only_nomination(
    neighbors: list[Neighbor],
    leaderboards: dict[int, list[tuple[str, float, dict]]],
    n_algorithms: int,
) -> list[Nomination]:
    """Ablation control: take the single best algorithm of each neighbour in
    distance order, ignoring performance magnitude."""
    nominations: list[Nomination] = []
    chosen: set[str] = set()
    for neighbor in neighbors:
        board = leaderboards.get(neighbor.dataset_id, [])
        if not board:
            continue
        algorithm, accuracy, config = max(board, key=lambda row: row[1])
        if algorithm in chosen:
            continue
        chosen.add(algorithm)
        nominations.append(
            Nomination(
                algorithm=algorithm,
                score=float(accuracy),
                supporting_datasets=[neighbor.dataset_id],
                warm_configs=[dict(config)],
            )
        )
        if len(nominations) >= n_algorithms:
            break
    return nominations
