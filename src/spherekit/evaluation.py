"""Retrieval evaluation: recall@K and mean average precision.

Ranking is by descending cosine similarity with ties broken by ascending
gallery index, so results are reproducible bit-for-bit. Average precision
follows the protocol where each query carries easy/hard/junk gallery index
sets: junk entries are deleted from the ranking (later ranks close up), the
positive set depends on the difficulty split, and
``AP = (1/|P|) * sum_k k / rank_k`` over the positives in ranked order.
Per-query term sums use math.fsum, so equal inputs give equal floats on any
summation path.

Two routes reach the same formulas. ``blocked_recall_at_k`` and
``blocked_mean_average_precision`` (what ``spherekit eval`` runs) stream
blocks of query rows against the gallery, at most ``SCORE_BLOCK_BYTES`` of
scores at a time, and count ranks instead of sorting: a query's first-hit
rank is 1 + the number of non-positive gallery items ahead of its best
positive, and a positive's rank is 1 + the number of kept (non-junk) items
with a higher score, or an equal score and a lower index. Memory is bounded
by the block budget, not by queries x gallery. ``retrieve`` builds every
query's full ``RankedList``; ``recall_at_k`` and ``average_precision`` read
ranks off those positions. They are the reference the blocked route is
tested against.

The blocked metrics are exact for exact scores, such as dot products of
coarsely quantized rows. On general floats a row of a block's product can
differ in the last bits from the same row of a product with other rows, so
where two scores are within a few ULPs of each other their order, and a
metric through it, may depend on the block budget (and on the gallery size
or BLAS thread count that shape the product).
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
    "RankedList",
    "QueryGroundTruth",
    "retrieve",
    "recall_at_k",
    "average_precision",
    "mean_average_precision",
    "score_blocks",
    "blocked_recall_at_k",
    "blocked_mean_average_precision",
]

SPLITS = ("easy", "medium", "hard")

# Bytes of float64 scores one query block may hold. Counting ranks in a block
# takes about three times this in temporaries, so it also bounds peak memory.
SCORE_BLOCK_BYTES = 32 * 2**20


@dataclass(frozen=True)
class RetrievalIndex:
    """Gallery of unit-norm descriptor rows with unique item identifiers.

    ``ids`` are opaque integers naming the items (defaults to 0..n-1); labels
    for recall computations travel separately, alongside the rankings.
    """

    gallery: np.ndarray
    ids: np.ndarray | None = None

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
        if self.ids is None:
            ids = np.arange(gallery.shape[0], dtype=np.int64)
        else:
            ids = np.asarray(self.ids)
            if ids.shape != (gallery.shape[0],):
                raise ShapeError("one id per gallery row required")
            if not np.issubdtype(ids.dtype, np.integer):
                raise ShapeError(f"ids must be integers, got dtype {ids.dtype}")
            if np.unique(ids).size != ids.size:
                raise ShapeError("gallery ids must be unique")
            ids = np.ascontiguousarray(ids, dtype=np.int64)
        object.__setattr__(self, "gallery", gallery)
        object.__setattr__(self, "ids", ids)

    def __len__(self) -> int:
        return self.gallery.shape[0]


@dataclass(frozen=True)
class RankedList:
    """One query's full gallery ordering with nonincreasing scores."""

    indices: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        if indices.ndim != 1 or scores.shape != indices.shape:
            raise ShapeError("indices and scores must be matching 1-D arrays")
        if indices.size:
            if indices.min() < 0:
                raise ShapeError("ranked gallery indices must be nonnegative")
            if np.unique(indices).size != indices.size:
                raise ShapeError("ranked gallery indices must be distinct")
            if np.any(np.diff(scores) > 0):
                raise ShapeError("ranking scores must be nonincreasing")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "scores", scores)

    def __len__(self) -> int:
        return self.indices.shape[0]


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
                raise ProtocolError(f"{name} must be a 1-D integer array")
            arr = np.ascontiguousarray(arr, dtype=np.int64)
            if arr.size != np.unique(arr).size:
                raise ProtocolError(f"{name} contains duplicate gallery indices")
            arrays[name] = arr
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


def _check_queries(index: RetrievalIndex, queries, exclude_self: bool) -> np.ndarray:
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
    return queries


def retrieve(
    index: RetrievalIndex, queries: np.ndarray, exclude_self: bool = False
) -> list[RankedList]:
    """Rank the whole gallery for each query row.

    ``exclude_self`` supports leave-one-out protocols where the query set IS
    the gallery: entry i is removed from ranking i. Ties in similarity are
    broken by ascending gallery index (stable sort on negated scores).
    """
    queries = _check_queries(index, queries, exclude_self)
    sims = queries @ index.gallery.T
    order = np.argsort(-sims, axis=1, kind="stable")
    out = []
    for i in range(queries.shape[0]):
        idx = order[i]
        if exclude_self:
            idx = idx[idx != i]
        out.append(RankedList(indices=idx, scores=sims[i, idx]))
    return out


def score_blocks(
    queries: np.ndarray, gallery: np.ndarray, block_rows: int | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield ``(start, queries[start:stop] @ gallery.T)`` over blocks of rows.

    ``block_rows`` defaults to as many rows as fit in ``SCORE_BLOCK_BYTES``
    (at least 2). A 1-row product runs as a matrix-vector call whose sums can
    differ in the last bits from the same row of a many-row product, so a
    1-row tail is merged into the block before it; only a single query is
    ever scored alone.
    """
    if block_rows is None:
        block_rows = max(2, SCORE_BLOCK_BYTES // (8 * max(gallery.shape[0], 1)))
    if block_rows < 2:
        raise ValueError(f"block_rows must be >= 2, got {block_rows}")
    n = queries.shape[0]
    start = 0
    while start < n:
        stop = min(start + block_rows, n)
        if n - stop == 1:
            stop = n
        yield start, queries[start:stop] @ gallery.T
        start = stop


def _label_arrays(labels, gallery_labels):
    """Query labels, and gallery labels defaulting to them (leave-one-out)."""
    query_labels = np.ascontiguousarray(labels, dtype=np.int64)
    if gallery_labels is None:
        return query_labels, query_labels
    return query_labels, np.ascontiguousarray(gallery_labels, dtype=np.int64)


def _recall_cutoffs(ks: Iterable[int], depth: int) -> list[int]:
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1:
        raise ProtocolError("recall cutoffs must be positive integers")
    if ks[-1] > depth:
        raise ProtocolError(f"K={ks[-1]} exceeds usable ranking depth {depth}")
    return ks


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
    rankings: Sequence[RankedList],
    labels: np.ndarray,
    ks: Iterable[int],
    gallery_labels: np.ndarray | None = None,
) -> dict[int, float]:
    """Fraction of queries with at least one same-label hit in the top K.

    ``labels`` are the query labels. In the leave-one-out protocol the query
    set is the gallery, so ranked indices resolve against ``labels`` itself;
    pass ``gallery_labels`` only for split query/gallery setups. Every query
    counts in the denominator. Raises ProtocolError when no query has any
    positive in the gallery (the metric would be vacuous) or when K exceeds
    the usable ranking depth.
    """
    query_labels, gallery_labels = _label_arrays(labels, gallery_labels)
    if len(rankings) != query_labels.shape[0]:
        raise ShapeError("one label per query ranking required")
    ks = _recall_cutoffs(ks, min((len(r) for r in rankings), default=0))
    first_hits = []
    for ranking, label in zip(rankings, query_labels):
        if ranking.indices.size and int(ranking.indices.max()) >= gallery_labels.shape[0]:
            raise ShapeError("ranking refers to indices outside the labeled gallery")
        match_positions = np.flatnonzero(gallery_labels[ranking.indices] == label)
        if match_positions.size:
            first_hits.append(int(match_positions[0]) + 1)
    return _recall_from_first_hits(
        np.asarray(first_hits, dtype=np.int64), ks, query_labels.shape[0]
    )


def blocked_recall_at_k(
    index: RetrievalIndex,
    queries: np.ndarray,
    labels: np.ndarray,
    ks: Iterable[int],
    gallery_labels: np.ndarray | None = None,
    exclude_self: bool = False,
    block_rows: int | None = None,
) -> dict[int, float]:
    """``recall_at_k(retrieve(index, queries, exclude_self), ...)`` without rankings.

    Each query's first-hit rank is counted in its score block: its best
    positive is the same-label item (self excluded) with the highest score,
    lowest index among equals, and the rank is 1 + the number of other items
    with a higher score, or an equal score and a lower index. Arguments,
    errors and results are those of ``recall_at_k``; the usable depth is the
    gallery size, minus one with ``exclude_self``.
    """
    queries = _check_queries(index, queries, exclude_self)
    query_labels, gallery_labels = _label_arrays(labels, gallery_labels)
    if query_labels.shape != (queries.shape[0],):
        raise ShapeError("one label per query required")
    if gallery_labels.shape != (len(index),):
        raise ShapeError("one label per gallery row required")
    ks = _recall_cutoffs(ks, len(index) - int(exclude_self))
    columns = np.arange(len(index))
    first_hits = []
    for start, S in score_blocks(queries, index.gallery, block_rows):
        rows = np.arange(S.shape[0])
        positive = query_labels[start : start + rows.size, None] == gallery_labels
        if exclude_self:
            positive[rows, start + rows] = False
            S[rows, start + rows] = -np.inf  # never ahead of a finite score
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
        queries.shape[0],
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


def average_precision(ranking: RankedList, gt: QueryGroundTruth, split: str) -> float:
    """AP for one query under a difficulty split.

    Junk-for-this-split entries are deleted from the ranking before ranks are
    assigned. Raises ProtocolError when the split leaves no positives.
    """
    positives, junk = _effective_sets(gt, split)
    if positives.size == 0:
        raise ProtocolError(f"query has no positives under the {split!r} split")
    junk_mask = np.zeros(len(ranking), dtype=bool)
    if junk.size:
        junk_mask = np.isin(ranking.indices, junk)
    kept = ranking.indices[~junk_mask]
    is_pos = np.isin(kept, positives)
    found = int(is_pos.sum())
    if found != positives.size:
        raise ProtocolError(
            f"ranking covers {found} of {positives.size} positives; "
            "ground-truth indices must appear in the ranking"
        )
    return _average_precision_from_ranks(np.flatnonzero(is_pos) + 1)


def _average_precision_from_ranks(ranks: np.ndarray) -> float:
    """``(1/|P|) * sum_k k / rank_k`` from the positives' ascending 1-based
    ranks after junk removal, one rank per positive."""
    return math.fsum((k + 1) / int(r) for k, r in enumerate(ranks)) / len(ranks)


def _mean_of_scored(values: list[float], split: str) -> float:
    if not values:
        raise ProtocolError(f"every query is empty under the {split!r} split")
    return math.fsum(values) / len(values)


def mean_average_precision(
    rankings: Sequence[RankedList],
    ground_truths: Sequence[QueryGroundTruth],
    split: str,
) -> tuple[float, list[int]]:
    """Mean AP over queries that have positives under the split.

    Queries with an empty positive set are skipped, not scored zero; their
    indices are returned alongside the mean so reports can name them. Raises
    ProtocolError when every query is skipped.
    """
    if len(rankings) != len(ground_truths):
        raise ShapeError("one ground-truth record per ranking required")
    values = []
    skipped = []
    for i, (ranking, gt) in enumerate(zip(rankings, ground_truths)):
        positives, _ = _effective_sets(gt, split)
        if positives.size == 0:
            skipped.append(i)
            continue
        values.append(average_precision(ranking, gt, split))
    return _mean_of_scored(values, split), skipped


def blocked_mean_average_precision(
    index: RetrievalIndex,
    queries: np.ndarray,
    ground_truths: Sequence[QueryGroundTruth],
    splits: Sequence[str],
    block_rows: int | None = None,
) -> dict[str, tuple[float, list[int]]]:
    """``mean_average_precision(retrieve(index, queries), ...)`` for each split,
    from one pass over the score blocks and without rankings.

    A positive's rank after junk removal is 1 + the number of kept items with
    a higher score, or an equal score and a lower index. Ground-truth indices
    must lie inside the gallery (ProtocolError otherwise); skipping and the
    all-skipped error are those of ``mean_average_precision``.
    """
    queries = _check_queries(index, queries, exclude_self=False)
    if len(ground_truths) != queries.shape[0]:
        raise ShapeError("one ground-truth record per query required")
    for gt in ground_truths:
        gt.check_bounds(len(index))
    columns = np.arange(len(index))
    values = {split: [] for split in splits}
    skipped = {split: [] for split in splits}
    for start, S in score_blocks(queries, index.gallery, block_rows):
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
