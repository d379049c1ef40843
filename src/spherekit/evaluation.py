"""Retrieval evaluation: recall@K and mean average precision.

Ranking is by descending cosine similarity with ties broken by ascending
gallery index, so results are reproducible bit-for-bit. Average precision
follows the protocol where each query carries easy/hard/junk gallery index
sets: junk entries are deleted from the ranking (later ranks close up), the
positive set depends on the difficulty split, and
``AP = (1/|P|) * sum_k k / rank_k`` over the positives in ranked order.
Per-query term sums use math.fsum, so equal inputs give equal floats on any
summation path.

``retrieve`` checks the queries and returns a ``Retrieval``, which scores
blocks of query rows against the gallery, at most ``SCORE_BLOCK_BYTES`` of
scores at a time; ``recall_at_k`` and ``mean_average_precision`` count ranks
in each block instead of sorting. A query's first-hit rank is 1 + the number
of non-positive gallery items ahead of its best positive, and a positive's
rank is 1 + the number of kept (non-junk) items with a higher score, or an
equal score and a lower index. No full ranking or queries x gallery score
matrix is ever built, so memory is bounded by the block budget.

The metrics are exact for exact scores, such as dot products of coarsely
quantized rows. On general floats a row of a block's product can differ in
the last bits from the same row of a product with other rows, so where two
scores are within a few ULPs of each other their order, and a metric through
it, may depend on the block budget (and on the gallery size or BLAS thread
count that shape the product).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import NumericalError, ProtocolError, ShapeError
from .geometry import UNIT_ATOL

__all__ = [
    "SPLITS",
    "SCORE_BLOCK_BYTES",
    "RetrievalIndex",
    "Retrieval",
    "QueryGroundTruth",
    "retrieve",
    "recall_at_k",
    "mean_average_precision",
    "score_blocks",
]

SPLITS = ("easy", "medium", "hard")

# Bytes of float64 scores one query block may hold. Counting ranks in a block
# takes about three times this in temporaries, so it also bounds peak memory.
SCORE_BLOCK_BYTES = 32 * 2**20


@dataclass(frozen=True)
class RetrievalIndex:
    """Gallery of unit-norm descriptor rows; a row's position is its id.

    Labels for recall computations travel separately, alongside the queries.
    """

    gallery: np.ndarray

    def __post_init__(self):
        gallery = np.asarray(self.gallery, dtype=np.float64)
        if gallery.ndim != 2 or gallery.shape[0] < 1:
            raise ShapeError("gallery must be a nonempty 2-D array")
        if not np.all(np.isfinite(gallery)):
            raise NumericalError("gallery contains non-finite values")
        norms = np.linalg.norm(gallery, axis=1)
        off = np.abs(norms - 1.0)
        if float(off.max()) > UNIT_ATOL:
            i = int(np.argmax(off))
            raise ShapeError(f"gallery row {i} has norm {norms[i]!r}, expected unit")
        object.__setattr__(self, "gallery", gallery)

    def __len__(self) -> int:
        return self.gallery.shape[0]


def _check_no_duplicates(arrays: dict[str, np.ndarray]) -> None:
    for name, arr in arrays.items():
        if arr.size != np.unique(arr).size:
            raise ProtocolError(f"{name} contains duplicate gallery indices")


@dataclass(frozen=True)
class QueryGroundTruth:
    """Easy/hard/junk gallery index sets for one query; pairwise disjoint."""

    easy: np.ndarray
    hard: np.ndarray
    junk: np.ndarray

    def __post_init__(self):
        arrays = {}
        for name in ("easy", "hard", "junk"):
            arr = np.asarray(getattr(self, name))
            if arr.size == 0:
                arr = np.zeros(0, dtype=np.int64)
            if arr.ndim != 1 or not np.issubdtype(arr.dtype, np.integer):
                _check_no_duplicates(arrays)  # an earlier set's repeat is reported first
                raise ProtocolError(f"{name} must be a 1-D integer array")
            arrays[name] = np.ascontiguousarray(arr, dtype=np.int64)
        # One sort over all three sets finds any repeat; only then do the
        # per-set and pairwise checks run, to name it.
        merged = np.concatenate(list(arrays.values()))
        if np.unique(merged).size != merged.size:
            _check_no_duplicates(arrays)
            for a, b in (("easy", "hard"), ("easy", "junk"), ("hard", "junk")):
                if np.intersect1d(arrays[a], arrays[b]).size:
                    raise ProtocolError(f"{a} and {b} sets overlap")
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    def check_bounds(self, gallery_size: int) -> None:
        for name in ("easy", "hard", "junk"):
            arr = getattr(self, name)
            if arr.size and (arr.min() < 0 or arr.max() >= gallery_size):
                raise ProtocolError(
                    f"{name} indices fall outside gallery of size {gallery_size}"
                )


@dataclass(frozen=True)
class Retrieval:
    """Queries checked by ``retrieve``; holds no scores and no ranking."""

    index: RetrievalIndex
    queries: np.ndarray
    exclude_self: bool = False

    def blocks(self) -> Iterator[tuple[int, np.ndarray]]:
        """``score_blocks``, each query's own entry at -inf under ``exclude_self``."""
        for start, S in score_blocks(self.queries, self.index.gallery, SCORE_BLOCK_BYTES):
            if self.exclude_self:
                rows = np.arange(S.shape[0])
                S[rows, start + rows] = -np.inf
            yield start, S


def retrieve(
    index: RetrievalIndex,
    queries: np.ndarray,
    exclude_self: bool = False,
) -> Retrieval:
    """Check query rows against ``index`` for the metrics to score.

    ``exclude_self`` supports leave-one-out protocols where the query set IS
    the gallery: query i never retrieves gallery entry i. Ties in similarity
    are broken by ascending gallery index.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim != 2:
        raise ShapeError("queries must be 2-D")
    if queries.shape[1] != index.gallery.shape[1]:
        raise ShapeError(
            f"query dim {queries.shape[1]} != gallery dim {index.gallery.shape[1]}"
        )
    if not np.all(np.isfinite(queries)):
        raise NumericalError("queries contain non-finite values")
    if exclude_self and queries.shape[0] != len(index):
        raise ShapeError(
            "exclude_self requires the query set and gallery to be the same size"
        )
    return Retrieval(index, queries, exclude_self)


def score_blocks(
    queries: np.ndarray, gallery: np.ndarray, block_bytes: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, queries[start:stop] @ gallery.T)`` over blocks of rows.

    Every blocked product in the package comes from here, each caller passing
    its own budget. A block holds as many rows as fit ``block_bytes`` of
    float64 scores, and at least 2. A 1-row product runs as a matrix-vector
    call whose sums can differ in the last bits from the same row of a
    many-row product, so a 1-row tail is merged into the block before it;
    only a single query is ever scored alone.
    """
    block_rows = max(2, block_bytes // (8 * max(gallery.shape[0], 1)))
    n = queries.shape[0]
    start = 0
    while start < n:
        stop = min(start + block_rows, n)
        if n - stop == 1:
            stop = n
        yield start, queries[start:stop] @ gallery.T
        start = stop


def _recall_from_first_hits(
    first_hits: np.ndarray, ks: list[int], num_queries: int
) -> dict[int, float]:
    """Recall@K from the 1-based first-hit ranks of queries that have a positive."""
    if first_hits.size == 0:
        raise ProtocolError(
            "no query has a same-label gallery item; recall is undefined"
        )
    return {k: int(np.count_nonzero(first_hits <= k)) / num_queries for k in ks}


def recall_at_k(
    retrieval: Retrieval,
    labels: np.ndarray,
    ks: Iterable[int],
    gallery_labels: np.ndarray | None = None,
) -> dict[int, float]:
    """Fraction of queries with at least one same-label hit in the top K.

    ``labels`` are the query labels. In the leave-one-out protocol the query
    set is the gallery, so gallery items resolve against ``labels`` itself;
    pass ``gallery_labels`` only for split query/gallery setups. Every query
    counts in the denominator. Raises ProtocolError when no query has any
    positive in the gallery (the metric would be vacuous) or when K exceeds
    the usable ranking depth: the gallery size, minus one with
    ``exclude_self``.

    Each query's first-hit rank is counted in its score block: its best
    positive is the same-label item (self excluded) with the highest score,
    lowest index among equals, and the rank is 1 + the number of other items
    with a higher score, or an equal score and a lower index.
    """
    index = retrieval.index
    num_queries = retrieval.queries.shape[0]
    query_labels = np.ascontiguousarray(labels, dtype=np.int64)
    if gallery_labels is not None:
        gallery_labels = np.ascontiguousarray(gallery_labels, dtype=np.int64)
    else:
        gallery_labels = query_labels
    if query_labels.shape != (num_queries,):
        raise ShapeError("one label per query required")
    if gallery_labels.shape != (len(index),):
        raise ShapeError("one label per gallery row required")
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ProtocolError("recall cutoffs must be positive integers")
    depth = len(index) - int(retrieval.exclude_self)
    if ks[-1] > depth:
        raise ProtocolError(f"K={ks[-1]} exceeds usable ranking depth {depth}")
    columns = np.arange(len(index))
    first_hits = []
    for start, S in retrieval.blocks():
        rows = np.arange(S.shape[0])
        positive = query_labels[start : start + rows.size, None] == gallery_labels
        if retrieval.exclude_self:
            positive[rows, start + rows] = False
        found = positive.any(axis=1)
        best = np.max(S, axis=1, where=positive, initial=-np.inf)[:, None]
        tied = S == best
        first = np.argmax(tied & positive, axis=1)[:, None]
        ahead = np.count_nonzero(S > best, axis=1) + np.count_nonzero(
            tied & (columns < first), axis=1
        )
        first_hits.append(ahead[found] + 1)
    return _recall_from_first_hits(
        np.concatenate(first_hits) if first_hits else np.zeros(0, np.int64),
        ks,
        num_queries,
    )


def _effective_sets(gt: QueryGroundTruth, split: str):
    if split == "medium":
        positives = np.concatenate([gt.easy, gt.hard])
        junk = gt.junk
    elif split == "hard":
        positives = gt.hard
        junk = np.concatenate([gt.junk, gt.easy])
    elif split == "easy":
        positives = gt.easy
        junk = np.concatenate([gt.junk, gt.hard])
    else:
        raise ProtocolError(f"unknown difficulty split {split!r}; expected one of {SPLITS}")
    return positives, junk


def _average_precision_from_ranks(ranks: np.ndarray) -> float:
    """``(1/|P|) * sum_k k / rank_k`` from the positives' ascending 1-based
    ranks after junk removal, one rank per positive."""
    return math.fsum((k + 1) / int(r) for k, r in enumerate(ranks)) / len(ranks)


def _mean_of_scored(values: list[float], split: str) -> float:
    if not values:
        raise ProtocolError(f"every query is empty under the {split!r} split")
    return math.fsum(values) / len(values)


def mean_average_precision(
    retrieval: Retrieval,
    ground_truths: Sequence[QueryGroundTruth],
    splits: Sequence[str],
) -> dict[str, tuple[float, list[int]]]:
    """``{split: (mean AP, skipped query indices)}`` from one pass over the
    score blocks.

    Junk-for-the-split entries are deleted from each ranking before ranks are
    assigned: a positive's rank is 1 + the number of kept items with a higher
    score, or an equal score and a lower index. Queries with an empty
    positive set are skipped, not scored zero; their indices are returned so
    reports can name them. Raises ProtocolError when every query is skipped
    under a split, when a ground-truth index lies outside the gallery, or for
    an ``exclude_self`` retrieval (mark a query's own entry as junk instead).
    """
    if retrieval.exclude_self:
        raise ProtocolError(
            "mean average precision needs a retrieval without exclude_self; "
            "list a query's own gallery entry as junk instead"
        )
    index = retrieval.index
    if len(ground_truths) != retrieval.queries.shape[0]:
        raise ShapeError("one ground-truth record per query required")
    for gt in ground_truths:
        gt.check_bounds(len(index))
    columns = np.arange(len(index))
    values = {split: [] for split in splits}
    skipped = {split: [] for split in splits}
    for start, S in retrieval.blocks():
        for row, scores in enumerate(S):
            q = start + row
            for split in splits:
                positives, junk = _effective_sets(ground_truths[q], split)
                if positives.size == 0:
                    skipped[split].append(q)
                    continue
                own = scores[positives][:, None]
                ahead = (scores > own) | ((scores == own) & (columns < positives[:, None]))
                ranks = 1 + np.count_nonzero(ahead, axis=1)
                if junk.size:
                    ranks -= np.count_nonzero(ahead[:, junk], axis=1)
                values[split].append(_average_precision_from_ranks(np.sort(ranks)))
    return {split: (_mean_of_scored(values[split], split), skipped[split]) for split in splits}
