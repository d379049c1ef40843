"""Retrieval evaluation: recall@K and mean average precision.

Ranking is by descending cosine similarity with ties broken by ascending
gallery index, so results are reproducible bit-for-bit. Average precision
follows the protocol where each query carries easy/hard/junk gallery index
sets: junk entries are deleted from the ranking (later ranks close up), the
positive set depends on the difficulty split, and
``AP = (1/|P|) * sum_k k / rank_k`` over the positives in ranked order.
Per-query term sums use math.fsum, so equal inputs give equal floats on any
summation path.

``retrieve`` checks the queries and returns a ``Retrieval``;
``recall_at_k`` and ``mean_average_precision`` count ranks instead of
sorting. A query's first-hit rank is 1 + the number of non-positive gallery
items ahead of its best positive, and a positive's rank is 1 + the number of
kept (non-junk) items with a higher score, or an equal score and a lower
index. So each query needs only, for a few thresholds (its best positive
for recall, every positive for mAP), how many items score above each.

The metrics count that from float32 tiles of the products of float32 copies of
the queries and the gallery (``_screen._metric_spans``). The queries are taken
in row spans, each of as many rows as fit ``SCORE_BLOCK_BYTES // 8`` scores
and at least ``_screen._TILE_ROWS``, and a span's product in tiles of an
eighth of those scores, so memory is one tile, however wide the gallery.
Counts add up over a span's tiles. A threshold is the float64 score of a query
and a positive, one row dot each (``_screen._row_dots``: no BLAS, so a value
depends only on its two rows); recall gathers its positives a bounded chunk at
a time, so memory stays one tile plus bounded chunks however many positives a
query has. ``_screen._screen_thresholds`` gives a threshold float32 bounds
``below < above``: an item whose float32 score is ``>= above`` provably scores
above the threshold in any float64 evaluation and is counted, and one ``<=
below`` provably scores below it and is skipped. The items in between, the
band, on real data about one per threshold (mostly the positive itself), are
scored in float64 row dots and compared exactly, ties going to the lower
gallery index. Recall, with one threshold per query, counts a tile's items
above ``below`` with one compare, and compares against ``above`` only the
lines that hold any (on desk inputs about a quarter of them); mAP sorts each
float32 row of a tile once and places every threshold by binary search. mAP
scores its junk items in row dots too, to take them out of the counts. Both
refine their band items through one function (``_band_ahead``). A query
outside the screen's proven range (a norm above 2**60, a dim above 2**22) gets
bounds -inf and +inf and a float32 row of zeros, so every item of its line is
band. Every span takes this one route, whatever its share of band items: a
degenerate gallery costs row dots, not memory. On 4,000 unit rows at d 128
(one BLAS thread of a 2-core Xeon), leave-one-out recall over two classes
(2,000 positives a query, 3,998,000 same-label pairs scored for the
thresholds) takes about 0.9 s, and over a collapsed gallery (scores within
about 1e-5 of each other, every item in every band) about 3.2 s, where a
float64 product of each span took 0.3 and 0.2 s. No full ranking or queries x
gallery score matrix is ever built.

Recall has one driver for two span shapes. It finds every query's threshold
before the first product. Leave-one-out queries that are the gallery's own
array, with its labels, score each unordered same-label pair once for their
thresholds (a row dot is the same either way round), and each unordered
pair once in the tiles (but those in a diagonal strip's block): a span's
square is strips, each from its own first row's column, then the columns past it.
A tile counts its own queries row-wise and, past its last row, the later
queries column-wise (the bounds hold for any float32 evaluation of a dot
product, so a transposed score is as good as its own). Other queries take
tiles across every column, counted row-wise. Either way a query's own entry
is -inf under ``exclude_self``.

The metrics are exact for the row-dot scores: a query's ranks are those of a
stable sort of its float64 row dots, so they depend on neither the block
budget, the tile shape, the BLAS build nor its thread count. A BLAS product
can differ from a row dot in the last bits, so where two scores are within a
few ULPs of each other a ranking of product scores may order them the other
way; on exact scores, such as dot products of coarsely quantized rows, the
two agree.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import _screen
from .errors import NumericalError, ProtocolError, ShapeError
from .geometry import UNIT_ATOL, _check_unit_norms

__all__ = [
    "SPLITS",
    "SCORE_BLOCK_BYTES",
    "RetrievalIndex",
    "Retrieval",
    "QueryGroundTruth",
    "retrieve",
    "recall_at_k",
    "mean_average_precision",
]

SPLITS = ("easy", "medium", "hard")

# The metrics' budget in bytes of float64 scores: a row span holds as many
# full query rows as fit SCORE_BLOCK_BYTES // 8 scores, and at least
# _screen._TILE_ROWS, one float32 tile of SCORE_BLOCK_BYTES // 64 scores at a
# time (2 MiB: 512 x 1,024). A histogram span that falls back is screened
# over float64 tiles of as many scores, so no route holds more than a tile.
SCORE_BLOCK_BYTES = 32 * 2**20


@dataclass(frozen=True)
class RetrievalIndex:
    """Gallery of unit-norm descriptor rows; a row's position is its id.

    Labels for recall computations travel separately, alongside the queries.
    """

    gallery: np.ndarray

    def __post_init__(self):
        gallery = np.ascontiguousarray(self.gallery, dtype=np.float64)
        if gallery.ndim != 2 or gallery.shape[0] < 1:
            raise ShapeError("gallery must be a nonempty 2-D array")
        # Norms in row chunks of SCORE_BLOCK_BYTES // 512 values, so the
        # temporaries stay small; a row's norm is the same reduction of its
        # contiguous row as over the whole array.
        norms = np.empty(gallery.shape[0])
        step = max(1, SCORE_BLOCK_BYTES // 512 // max(gallery.shape[1], 1))
        for start in range(0, gallery.shape[0], step):
            chunk = gallery[start : start + step]
            if not np.all(np.isfinite(chunk)):
                raise NumericalError("gallery contains non-finite values")
            norms[start : start + step] = np.linalg.norm(chunk, axis=1)
        _check_unit_norms(norms, ShapeError, "gallery row {} has norm {!r}, expected unit")
        object.__setattr__(self, "gallery", gallery)

    def __len__(self) -> int:
        return self.gallery.shape[0]


def _check_no_duplicates(arrays: dict[str, np.ndarray]) -> None:
    for name, arr in arrays.items():
        if arr.size != np.unique(arr).size:
            raise ProtocolError(f"{name} contains duplicate gallery indices")


def _name_repeat(arrays: dict[str, np.ndarray]) -> None:
    """Raise ProtocolError naming a repeated index of the easy, hard and junk
    ``arrays``, if any: a set's own repeat first, in that order, then an
    overlap of two sets."""
    _check_no_duplicates(arrays)
    for a, b in (("easy", "hard"), ("easy", "junk"), ("hard", "junk")):
        if np.intersect1d(arrays[a], arrays[b]).size:
            raise ProtocolError(f"{a} and {b} sets overlap")


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
            if arr.ndim != 1 or arr.dtype.kind not in "iu":  # any integer dtype
                _check_no_duplicates(arrays)  # an earlier set's repeat is reported first
                raise ProtocolError(f"{name} must be a 1-D integer array")
            arrays[name] = np.ascontiguousarray(arr, dtype=np.int64)
        # One set of all three sets' items finds any repeat; only then do the
        # per-set and pairwise checks run, to name it.
        items = [arr.tolist() for arr in arrays.values()]
        if len(set().union(*items)) != sum(map(len, items)):
            _name_repeat(arrays)
        for name, arr in arrays.items():
            object.__setattr__(self, name, arr)

    @classmethod
    def _checked(cls, easy: np.ndarray, hard: np.ndarray, junk: np.ndarray) -> "QueryGroundTruth":
        """A record of 1-D int64 arrays that its caller has already checked
        for repeats, as ``io.read_ground_truth`` does for every record at
        once; they are kept as given, with no check and no copy."""
        gt = object.__new__(cls)
        for name, arr in (("easy", easy), ("hard", hard), ("junk", junk)):
            object.__setattr__(gt, name, arr)
        return gt

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


def _label_runs(labels: np.ndarray, of: np.ndarray):
    """``(by_label, run_start, run_size)``: ``labels`` sorted stably, and per
    entry of ``of`` the run of ``by_label`` whose labels equal it. A run
    lists its rows in ascending index, since the sort is stable."""
    by_label = np.argsort(labels, kind="stable")
    sorted_labels = labels[by_label]
    run_start = np.searchsorted(sorted_labels, of, "left")
    return by_label, run_start, np.searchsorted(sorted_labels, of, "right") - run_start


def _query_dots(retrieval: Retrieval, queries, items) -> np.ndarray:
    """``_row_dots`` of query rows ``queries`` and gallery rows ``items``, in
    chunks of 1/64 of the score block budget per operand."""
    return _screen._row_dots(retrieval.queries, queries, retrieval.index.gallery, items,
                             SCORE_BLOCK_BYTES // 512)


def _float32_copies(retrieval: Retrieval) -> tuple[np.ndarray, np.ndarray]:
    """Float32 copies of the queries and the gallery; queries that are the
    gallery's own array share its copy. Other queries outside the screen's
    proven range (bounds -inf and +inf) get a row of zeros, so their float32
    scores stay finite (the copy of an entry above 2**128 overflows) and lie
    strictly between the bounds; unit rows always score finitely."""
    with np.errstate(over="ignore"):
        gallery = retrieval.index.gallery.astype(np.float32)
        if retrieval.queries is retrieval.index.gallery:
            return gallery, gallery
        queries = retrieval.queries.astype(np.float32)
    below, _ = _query_bounds(retrieval, 0, queries.shape[0], slice(None), 0.0)
    queries[below == -np.inf] = 0
    return queries, gallery


def _exclude_own(S: np.ndarray, start: int, first: int) -> None:
    """Set to -inf the entries of the tile ``S`` (rows ``start, ...``,
    columns ``first, ...``) that score a query against its own gallery row."""
    own = np.arange(max(start, first), min(start + S.shape[0], first + S.shape[1]))
    S[own - start, own - first] = -np.inf


def _query_bounds(retrieval: Retrieval, start: int, r: int, rows, values):
    """``_screen_thresholds`` around ``values`` for queries ``start + rows``
    of a row span of ``r`` rows. A query outside the screen's proven range
    gets -inf and +inf: its whole line is band, scored in float64."""
    Z = retrieval.queries[start : start + r]
    z_norm = np.sqrt(np.einsum("ij,ij->i", Z, Z))
    # Gallery rows passed the UNIT_ATOL norm check in RetrievalIndex.
    return _screen._screen_thresholds(z_norm[rows], Z.shape[1], 1.0 + UNIT_ATOL, values)


@dataclass(frozen=True)
class _Thresholds:
    """Per query: its best positive ``item``, that item's float64 score
    ``value``, and float32 bounds ``below < above`` around it
    (``_query_bounds``). A query without a threshold has bounds of +inf,
    which count nothing."""

    value: np.ndarray
    item: np.ndarray
    below: np.ndarray
    above: np.ndarray

    def __getitem__(self, index) -> "_Thresholds":
        return _Thresholds(self.value[index], self.item[index], self.below[index],
                           self.above[index])

    @property
    def found(self) -> np.ndarray:
        """Which queries have a threshold."""
        return self.below != np.inf


def _row_counts(mask: np.ndarray) -> np.ndarray:
    """The True entries of each row of a boolean array. Summing its bytes as
    int8 into int32 runs about three times faster than ``count_nonzero``."""
    return mask.view(np.int8).sum(axis=1, dtype=np.int32)


def _band_ahead(retrieval, L, lines, first, queries, t: _Thresholds, band):
    """Per threshold i of ``t``, on line ``lines[i]`` of ``L`` (``band[i]``
    its band size): the band items ahead of it, scored in float64 and
    compared exactly, ties going to the lower gallery index.

    A line holds the scores of gallery items ``first, first + 1, ...``, and
    threshold i is one of query ``queries[i]``. A threshold's own item lies
    inside its band (the float32 and float64 scores are within the slack),
    so a threshold whose band holds only that item needs no work. The other
    thresholds' lines are gathered an eighth of ``L`` at a time.
    """
    width = L.shape[1]
    ahead = np.zeros(lines.size, dtype=np.int64)
    own = (first <= t.item) & (t.item < first + width)
    refine = np.flatnonzero(band > own)
    step = max(1, L.shape[0] // 8)
    for start in range(0, refine.size, step):
        chunk = refine[start : start + step]
        R = L[lines[chunk]]
        between = (R > t.below[chunk, None]) & (R < t.above[chunk, None])
        at, cols = np.divmod(np.flatnonzero(between), width)
        del R, between
        which, items = chunk[at], first + cols
        scores = _query_dots(retrieval, queries[which], items)
        v = t.value[which]
        later = (scores > v) | ((scores == v) & (items < t.item[which]))
        ahead += np.bincount(which[later], minlength=lines.size)
    return ahead


def _lines_ahead(retrieval, L, first, queries, t: _Thresholds) -> np.ndarray:
    """Per line i of float32 scores ``L`` (gallery items ``first, first + 1,
    ...``) with threshold ``t[i]`` of query ``queries[i]``: the items at or
    above its ``above`` plus its band items ahead of it (``_band_ahead``).
    One compare over ``L`` counts the items above ``below``; only the lines
    with any are compared again, against ``above``. Under ``exclude_self`` a
    query's own entry must be -inf."""
    band = _row_counts(L > t.below[:, None])
    top = np.zeros_like(band)
    lines = np.flatnonzero(band)
    if lines.size == band.size:
        lines = slice(None)  # every line: compare L in place, not a gathered copy
    top[lines] = _row_counts(L[lines] >= t.above[lines, None])
    band -= top
    return top + _band_ahead(retrieval, L, np.arange(queries.size), first, queries, t, band)


def _screened_ahead(retrieval, tiles, queries, t: _Thresholds) -> np.ndarray:
    """The gallery items ahead of each threshold of a row span, one per row
    (query ``queries[i]``, ascending), from the span's float32 ``tiles``
    (``(start, first, tile)``): ``_lines_ahead`` of each tile's rows, added up."""
    ahead = np.zeros(queries.size, dtype=np.int64)
    for start, first, L in tiles:
        rows = slice(start - queries[0], start - queries[0] + L.shape[0])
        ahead[rows] += _lines_ahead(retrieval, L, first, queries[rows], t[rows])
        del L
    return ahead


def _places(ranked: np.ndarray, rows: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Per bound ``bounds[i, j]``, ``np.searchsorted(ranked[rows[i]],
    bounds[i, j])`` (rows ascending), for every bound at once: each count
    grows by each power of two, largest first, while it ends on an entry
    below the bound."""
    width = ranked.shape[1]
    flat = ranked.reshape(-1)
    last = (rows * width)[:, None] - 1  # plus a count: the entry it ends on
    places = np.zeros(bounds.shape, dtype=np.int64)
    step = 1 << (width.bit_length() - 1)
    while step:
        probe = places + step
        below = (probe <= width) & (flat[last + np.minimum(probe, width)] < bounds)
        np.add(places, step, out=places, where=below)
        step >>= 1
    return places


def _ranked_ahead(retrieval, start, stop, tiles, rows, items, values):
    """``_screened_ahead`` for any number of thresholds per row (``rows``
    ascending, relative to ``start``) of the row span ``start..stop``.

    Each row of a tile is sorted once; a threshold's items at or above
    ``above`` and in its band (strictly between ``below`` and ``above``) are
    then two binary searches, one run for every bound of a tile
    (``_places``), and ``_band_ahead`` refines the bands; counts add up over
    the tiles.
    """
    below, above = _query_bounds(retrieval, start, stop - start, rows, values)
    t = _Thresholds(values, items, below, above)
    # A score is at most `below` exactly when it is below the next float32.
    bounds = np.stack([np.nextafter(below, np.float32(np.inf)), above], axis=1)
    ahead = np.zeros(rows.size, dtype=np.int64)
    for _, first, S32 in tiles:
        band_from, band_to = _places(np.sort(S32, axis=1), rows, bounds).T
        ahead += S32.shape[1] - band_to
        ahead += _band_ahead(retrieval, S32, rows, first, start + rows, t, band_to - band_from)
        del S32
    return ahead


def _thresholds(retrieval, by_label, run_start, run_size, both_ends=False) -> _Thresholds:
    """Every query's threshold: its best positive, the same-label item (self
    excluded) with the highest row-dot score, lowest index among equals. A
    query's positives are its run of the gallery sorted by label
    (``by_label``, ``run_start``, ``run_size``), in ascending index. All
    queries' runs are scored in order, ``SCORE_BLOCK_BYTES // 512`` pairs at
    a time, so a run may span chunks: a later chunk's best replaces a
    query's only when it scores higher.

    With ``both_ends`` the queries are the gallery and each query's run holds
    only its later positives, so each unordered same-label pair is scored
    once (a row dot is the same either way round) and counts for both of
    its ends. An item's earlier positives are all in the runs of earlier
    queries, so a chunk offers it those before its own run, and candidates
    still reach every query in ascending index.
    """
    n, m = retrieval.queries.shape[0], len(retrieval.index)
    t = _Thresholds(np.full(n, -np.inf), np.full(n, m),
                    np.full(n, np.inf, dtype=np.float32), np.full(n, np.inf, dtype=np.float32))
    ends = np.cumsum(run_size)
    shift = run_start - (ends - run_size)  # from a pair's place to its run's entry
    step = max(1, SCORE_BLOCK_BYTES // 512)
    for lo in range(0, int(ends[-1]) if n else 0, step):
        pairs = np.arange(lo, min(lo + step, ends[-1]))
        owner = np.searchsorted(ends, pairs, "right")
        cols = by_label[pairs + shift[owner]]
        if retrieval.exclude_self:
            other = cols != owner
            owner, cols = owner[other], cols[other]
        if owner.size == 0:
            continue
        scores = _query_dots(retrieval, owner, cols)
        if both_ends:
            # The later end first: its candidates here have lower indices
            # than any of its own run's.
            before = t.value[cols]
            np.maximum.at(t.value, cols, scores)
            best = t.value[cols]
            won = (scores == best) & (best > before)
            t.item[cols[won]] = m
            np.minimum.at(t.item, cols[won], owner[won])
        first = np.flatnonzero(np.diff(owner, prepend=-1))
        rows, best = owner[first], np.maximum.reduceat(scores, first)
        tied = scores == np.repeat(best, np.diff(first, append=owner.size))
        higher = best > t.value[rows]
        rows = rows[higher]
        t.value[rows] = best[higher]
        t.item[rows] = np.minimum.reduceat(np.where(tied, cols, m), first)[higher]
    found = np.flatnonzero(t.item < m)
    t.below[found], t.above[found] = _query_bounds(retrieval, 0, n, found, t.value[found])
    return t


def _first_hits(retrieval, query_labels, gallery_labels) -> np.ndarray:
    """First-hit ranks of the queries that have a positive, in query order.

    Every query's threshold is found first (``_thresholds``; for
    leave-one-out queries that are the gallery's own array, with labels
    that are the gallery's, each same-label pair once). The row spans
    are those of ``_screen._metric_spans``: upper trapezoids for leave-one-out
    queries that are the gallery's own array, whose tiles count the later
    queries column-wise past their own rows as they pass, and otherwise full
    rows. Each tile counts its own queries row-wise (``_screened_ahead``).
    """
    n = retrieval.queries.shape[0]
    trapezoid = retrieval.exclude_self and retrieval.queries is retrieval.index.gallery
    queries, gallery = _float32_copies(retrieval)
    by_label, run_start, run_size = _label_runs(gallery_labels, query_labels)
    both_ends = trapezoid and np.array_equal(query_labels, gallery_labels)
    if both_ends:
        # Each query's run from the item after its own place in by_label.
        later = np.empty(n, dtype=np.int64)
        later[by_label] = np.arange(1, n + 1)
        run_start, run_size = later, run_start + run_size - later
    thresholds = _thresholds(retrieval, by_label, run_start, run_size, both_ends)
    ahead = np.zeros(n, dtype=np.int64)

    def counted(tiles):
        """The span's tiles with their queries' own entries at -inf, after
        counting the later queries in their columns past the tile's rows."""
        for start, first, S32 in tiles:
            if retrieval.exclude_self:
                _exclude_own(S32, start, first)
            lo, hi = max(first, start + S32.shape[0]), first + S32.shape[1]
            if trapezoid and lo < hi:
                ahead[lo:hi] += _lines_ahead(retrieval, S32[:, lo - first :].T, start,
                                             np.arange(lo, hi), thresholds[lo:hi])
            yield start, first, S32
            del S32

    for start, stop, tiles in _screen._metric_spans(queries, gallery, SCORE_BLOCK_BYTES, trapezoid):
        ahead[start:stop] += _screened_ahead(retrieval, counted(tiles),
                                             np.arange(start, stop), thresholds[start:stop])
    return (ahead + 1)[thresholds.found]


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
    pass ``gallery_labels`` only for split query/gallery setups. Labels must
    be integers, one per row, or ShapeError is raised. Every query counts in
    the denominator. Raises ProtocolError when a cutoff is not a positive
    ``int`` or numpy integer (2.0, "2" and True are not), when no query has
    any positive in the gallery (the metric would be vacuous) or when K
    exceeds the usable ranking depth: the gallery size, minus one with
    ``exclude_self``.

    A query's best positive is the same-label item (self excluded) with the
    highest score, lowest index among equals, and its first-hit rank is 1 +
    the number of other items with a higher score, or an equal score and a
    lower index. The positives come from one sort of the gallery labels and
    are scored in row dots a bounded chunk at a time, a query's best one is
    the threshold (``_thresholds``), and ``_screened_ahead`` counts the items
    ahead of it per row span, tile by tile. One driver (``_first_hits``) takes
    the row spans in two shapes: upper trapezoids for leave-one-out queries
    that are the gallery's own array (``_screen._span_tiles``), and every column for
    any other queries.
    """
    index = retrieval.index
    num_queries = retrieval.queries.shape[0]
    query_labels = np.asarray(labels)
    gallery_labels = query_labels if gallery_labels is None else np.asarray(gallery_labels)
    _screen._check_integer_labels(query_labels, "query labels")
    _screen._check_integer_labels(gallery_labels, "gallery labels")
    query_labels = np.ascontiguousarray(query_labels, dtype=np.int64)
    gallery_labels = np.ascontiguousarray(gallery_labels, dtype=np.int64)
    if query_labels.shape != (num_queries,):
        raise ShapeError("one label per query required")
    if gallery_labels.shape != (len(index),):
        raise ShapeError("one label per gallery row required")
    ks = list(ks)
    if not ks or not all(
        isinstance(k, (int, np.integer)) and not isinstance(k, bool) and k >= 1 for k in ks
    ):
        raise ProtocolError("recall cutoffs must be positive integers")
    ks = sorted(set(int(k) for k in ks))
    depth = len(index) - int(retrieval.exclude_self)
    if ks[-1] > depth:
        raise ProtocolError(f"K={ks[-1]} exceeds usable ranking depth {depth}")
    first_hits = _first_hits(retrieval, query_labels, gallery_labels)
    return _recall_from_first_hits(first_hits, ks, num_queries)


def _split_roles(split: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Positive and junk roles under ``split``: 0 easy, 1 hard, 2 junk."""
    if split == "medium":
        return (0, 1), (2,)
    if split == "hard":
        return (1,), (2, 0)
    if split == "easy":
        return (0,), (2, 1)
    raise ProtocolError(f"unknown difficulty split {split!r}; expected one of {SPLITS}")


def _average_precisions(ranks: list[int], counts: list[int]) -> list[float]:
    """``(1/|P|) * sum_k k / rank_k`` per query, from the positives' ascending
    1-based ranks after junk removal, the queries' ``counts`` (all nonzero)
    of them in turn."""
    values, start = [], 0
    for count in counts:
        terms = map(operator.truediv, range(1, count + 1), ranks[start : start + count])
        values.append(math.fsum(terms) / count)
        start += count
    return values


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
    score tiles.

    Junk-for-the-split entries are deleted from each ranking before ranks are
    assigned: a positive's rank is 1 + the number of kept items with a higher
    score, or an equal score and a lower index. Queries with an empty
    positive set are skipped, not scored zero; their indices are returned so
    reports can name them. Raises ProtocolError when every query is skipped
    under a split, when a ground-truth index lies outside the gallery, or for
    an ``exclude_self`` retrieval (mark a query's own entry as junk instead).

    Every easy, hard and junk item of every query gets its float64 score,
    and every item that is a positive under some split also the number of
    gallery items ahead of it (``_ranked_ahead``). A split's rank of a
    positive is then 1 + that number minus the split's junk items ahead of
    it, read off one sort of each query's items by score.
    """
    if retrieval.exclude_self:
        raise ProtocolError(
            "mean average precision needs a retrieval without exclude_self; "
            "list a query's own gallery entry as junk instead"
        )
    num_queries, gallery_size = retrieval.queries.shape[0], len(retrieval.index)
    if len(ground_truths) != num_queries:
        raise ShapeError("one ground-truth record per query required")
    # Every query's easy, hard and junk items in query order: gallery index,
    # query and role (0 easy, 1 hard, 2 junk).
    sets = [arr for gt in ground_truths for arr in (gt.easy, gt.hard, gt.junk)]
    sizes = np.array([arr.size for arr in sets], dtype=np.int64)
    items = np.concatenate(sets) if sets else np.zeros(0, dtype=np.int64)
    role = np.repeat(np.tile(np.arange(3), num_queries), sizes)
    query = np.repeat(np.repeat(np.arange(num_queries), 3), sizes)
    outside = (items < 0) | (items >= gallery_size)
    if outside.any():
        name = ("easy", "hard", "junk")[role[np.argmax(outside)]]
        raise ProtocolError(f"{name} indices fall outside gallery of size {gallery_size}")
    roles = {split: _split_roles(split) for split in splits}
    threshold = np.isin(role, [code for positive, _ in roles.values() for code in positive])
    value = np.empty(items.size)
    ahead = np.zeros(items.size, dtype=np.int64)
    for start, stop, tiles in _screen._metric_spans(*_float32_copies(retrieval), SCORE_BLOCK_BYTES):
        block = slice(*np.searchsorted(query, [start, stop]))
        rows, cols, t = query[block] - start, items[block], threshold[block]
        value[block] = _query_dots(retrieval, query[block], cols)
        ahead[block][t] = _ranked_ahead(retrieval, start, stop, tiles, rows[t], cols[t],
                                        value[block][t])
    # Each query's items in rank order: score descending, then index.
    order = np.lexsort((items, -value, query))
    query, role, ahead = query[order], role[order], ahead[order]
    query_start = np.searchsorted(query, query, "left")
    results = {}
    for split, (positive_roles, junk_roles) in roles.items():
        positive = np.isin(role, positive_roles)
        junk = np.isin(role, junk_roles)
        junk_before = np.cumsum(junk) - junk
        junk_ahead = junk_before - junk_before[query_start]
        # Ranks come out ascending within each query, as the order is rank order.
        ranks = 1 + ahead[positive] - junk_ahead[positive]
        per_query = np.bincount(query[positive], minlength=num_queries)
        values = _average_precisions(ranks.tolist(), per_query[per_query > 0].tolist())
        results[split] = (
            _mean_of_scored(values, split),
            np.flatnonzero(per_query == 0).tolist(),
        )
    return results
