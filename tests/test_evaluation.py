"""Retrieval, recall, and average-precision behavior.

The metrics count ranks in blocks of scores and build no ranking, so the
reference here is the full one: a stable sort of each query's negated score
row (``full_rankings``), which orders by (negated similarity, position). Its
scores are row dots, the float64 evaluation the metrics rank by.
Average precision is checked against a walk-the-ranking oracle that skips
junk and accumulates precision at each hit; recall against a counting loop.
Oracle arithmetic mirrors rank order term by term, so the comparisons are
exact, not approximate. Fixed rankings are realized as scores on the unit
circle (``circle_ranking``), and the property tests compare against the
full rankings on quantized inputs whose scores are exact and full of ties,
for several block sizes.
"""

import contextlib
import itertools
import math
import re
import tracemalloc
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spherekit import (
    LabeledEmbeddingBatch,
    MemoryView,
    NumericalError,
    ProtocolError,
    QueryGroundTruth,
    RetrievalIndex,
    contrastive_loss,
    mean_average_precision,
    mine_hard_negatives,
    recall_at_k,
    retrieve,
    similarity_histograms,
)
from spherekit import _screen, evaluation, objective, trainer
from spherekit.errors import ShapeError

from conftest import (
    budget_for_rows,
    circle_ranking,
    histogram_routes,
    metric_tiles,
    quantized_unit_rows,
    rows_at_similarity,
    screen_routes,
    unit_rows,
)


def row_dot_scores(G, Q):
    """``Q @ G.T`` evaluated as the metrics evaluate a pair: one ``einsum``
    row dot of the two rows. A BLAS product can differ in the last bits, and
    so order scores within a few ULPs of each other the other way."""
    scores = np.empty((Q.shape[0], G.shape[0]))
    for i in range(Q.shape[0]):
        np.einsum("ij,ij->i", np.repeat(Q[i : i + 1], G.shape[0], axis=0), G, out=scores[i])
    return scores


def full_rankings(G, Q, exclude_self=False):
    """Every query's whole gallery ordering: a stable sort of its negated
    row-dot scores (``row_dot_scores``), with the query's own entry removed
    under ``exclude_self``."""
    order = np.argsort(-row_dot_scores(G, Q), axis=1, kind="stable")
    if exclude_self:
        return [ranking[ranking != i] for i, ranking in enumerate(order)]
    return list(order)


def ranked(perm):
    """Retrieval whose one query ranks the gallery in ``perm`` order."""
    gallery, query = circle_ranking(perm)
    return retrieve(RetrievalIndex(gallery), query)


def ap_walk(indices, positives, junk):
    """Precision-at-hit walk over a ranking with junk skipped."""
    pos = {int(i) for i in positives}
    jnk = {int(i) for i in junk}
    hits = 0
    rank = 0
    terms = []
    for idx in indices:
        idx = int(idx)
        if idx in jnk:
            continue
        rank += 1
        if idx in pos:
            hits += 1
            terms.append(hits / rank)
    return math.fsum(terms) / len(pos)


def recall_walk(rankings, query_labels, gallery_labels, k):
    hits = 0
    for ranking, label in zip(rankings, query_labels):
        top = [int(i) for i in ranking[:k]]
        if any(gallery_labels[i] == label for i in top):
            hits += 1
    return hits / len(rankings)


def split_sets(record, split):
    """(positives, junk) of a record under a difficulty split."""
    easy, hard, junk = list(record.easy), list(record.hard), list(record.junk)
    return {
        "easy": (easy, junk + hard),
        "medium": (easy + hard, junk),
        "hard": (hard, junk + easy),
    }[split]


def map_walk(rankings, records, split):
    """(mean AP, skipped queries) over full rankings; None if all are skipped."""
    values, skipped = [], []
    for q, (ranking, record) in enumerate(zip(rankings, records)):
        positives, junk = split_sets(record, split)
        if not positives:
            skipped.append(q)
            continue
        values.append(ap_walk(ranking, positives, junk))
    return (math.fsum(values) / len(values), skipped) if values else None


def single_ap(perm, record, split):
    """AP of the one query of ``ranked(perm)``: the mean over one query."""
    value, skipped = mean_average_precision(ranked(perm), [record], (split,))[split]
    assert skipped == []
    return value


def rank_of(index, query, item):
    """1-based rank of gallery ``item`` for ``query``, read off recall@K with
    ``item`` as the only positive."""
    gallery_labels = np.zeros(len(index), dtype=np.int64)
    gallery_labels[item] = 1
    rep = recall_at_k(retrieve(index, query[None, :]), np.array([1]),
                      range(1, len(index) + 1), gallery_labels=gallery_labels)
    return 1 + sum(value == 0.0 for value in rep.values())


def gt(easy=(), hard=(), junk=()):
    return QueryGroundTruth(
        easy=np.asarray(easy, dtype=np.int64),
        hard=np.asarray(hard, dtype=np.int64),
        junk=np.asarray(junk, dtype=np.int64),
    )


class TestRetrieve:
    def test_order_matches_sort_rule(self):
        rng = np.random.default_rng(60)
        gallery = unit_rows(rng, 15, 6)
        queries = unit_rows(rng, 4, 6)
        index = RetrievalIndex(gallery=gallery)
        sims = queries @ gallery.T
        spans = _screen._metric_spans(queries, gallery, evaluation.SCORE_BLOCK_BYTES)
        assert_array_equal(np.vstack([S for _, _, tiles in spans for _, _, S in tiles]), sims)
        for qi in range(4):
            # rank_of scores one query alone, as this product does
            row = (queries[qi][None, :] @ gallery.T)[0]
            expected = sorted(range(15), key=lambda j: (-row[j], j))
            ranks = [rank_of(index, queries[qi], j) for j in expected]
            assert ranks == list(range(1, 16))

    def test_ties_break_by_ascending_position(self):
        rng = np.random.default_rng(61)
        row = unit_rows(rng, 1, 5)[0]
        other = unit_rows(rng, 1, 5)[0]
        gallery = np.stack([other, row, other, row, other])  # exact duplicates
        index = RetrievalIndex(gallery=gallery)
        ranks = [rank_of(index, row, j) for j in (1, 3, 0, 2, 4)]
        assert ranks == [1, 2, 3, 4, 5]

    def test_exclude_self_drops_own_position(self):
        rng = np.random.default_rng(62)
        Z = unit_rows(rng, 8, 5)
        retrieval = retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True)
        # Each query outscores every other row against itself, yet is never
        # ranked.
        labels = np.arange(8) // 2
        rankings = full_rankings(Z, Z, exclude_self=True)
        expected = {k: recall_walk(rankings, labels, labels, k) for k in range(1, 8)}
        assert recall_at_k(retrieval, labels, range(1, 8)) == expected
        with pytest.raises(ProtocolError, match="usable ranking depth 7"):
            recall_at_k(retrieval, np.zeros(8, dtype=np.int64), (8,))
        with pytest.raises(ProtocolError, match="no query"):
            recall_at_k(retrieval, np.arange(8), (1,))  # self is never a hit

    def test_exclude_self_requires_square_setup(self):
        rng = np.random.default_rng(63)
        Z = unit_rows(rng, 8, 5)
        with pytest.raises(ShapeError):
            retrieve(RetrievalIndex(gallery=Z), Z[:4], exclude_self=True)

    def test_dim_mismatch(self):
        rng = np.random.default_rng(64)
        with pytest.raises(ShapeError):
            retrieve(RetrievalIndex(gallery=unit_rows(rng, 5, 4)), unit_rows(rng, 2, 6))

    def test_non_finite_queries_raise(self):
        Z = np.eye(3)
        Q = Z.copy()
        Q[1, 0] = np.nan
        index = RetrievalIndex(gallery=Z)
        with pytest.raises(NumericalError, match="non-finite"):
            retrieve(index, Q)


class TestRetrievalIndex:
    def test_rejects_non_unit_gallery(self):
        rng = np.random.default_rng(65)
        G = unit_rows(rng, 5, 4)
        G[2] *= 0.9
        with pytest.raises(ShapeError, match="row 2"):
            RetrievalIndex(gallery=G)

    def test_norm_check_reports_the_whole_array_norm(self):
        # Rows checked in chunks report the norm of the whole-array check,
        # and a non-finite row in a later chunk wins over an earlier off-unit
        # row.
        rng = np.random.default_rng(66)
        G = unit_rows(rng, 3000, 32)
        G[2500] *= 1.5
        norm = np.linalg.norm(G, axis=1)[2500]
        with mock.patch.object(evaluation, "SCORE_BLOCK_BYTES", 512 * 32 * 100):
            message = f"gallery row 2500 has norm {norm!r}, expected unit"
            with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
                RetrievalIndex(gallery=G)
            G[10] *= 0.5
            G[2999, 3] = np.inf
            with pytest.raises(NumericalError, match="non-finite"):
                RetrievalIndex(gallery=G)

    def test_norm_check_holds_no_gallery_sized_temporary(self):
        # A 20,000 x 128 gallery is 19.5 MiB; norms over all rows at once
        # squared it into a temporary of the same size.
        G = unit_rows(np.random.default_rng(67), 20000, 128)
        tracemalloc.start()
        try:
            index = RetrievalIndex(gallery=G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert index.gallery is G
        assert peak < G.nbytes / 8, peak / G.nbytes


class TestRecallAtK:
    def test_rejects_non_integer_labels(self):
        # Truncated to int64, labels [1.2, 1.7, 5.0] would put queries 0 and
        # 1 in one class and report recall@1 2/3.
        Z = np.eye(3)
        index = RetrievalIndex(gallery=Z)
        loo = retrieve(index, Z, exclude_self=True)
        with pytest.raises(ShapeError, match="query labels must be integers"):
            recall_at_k(loo, np.array([1.2, 1.7, 5.0]), (1,))
        with pytest.raises(ShapeError, match="query labels must be integers"):
            recall_at_k(loo, np.array([True, True, False]), (1,))
        split = retrieve(index, Z[:2])
        with pytest.raises(ShapeError, match="gallery labels must be integers"):
            recall_at_k(split, np.array([0, 1]), (1,), gallery_labels=np.array([0.0, 1.0, 1.0]))
        # Empty label lists stay valid: the empty query set has no positive.
        with pytest.raises(ProtocolError, match="no query"):
            recall_at_k(retrieve(index, Z[:0]), [], (1,), gallery_labels=[0, 0, 1])

    def test_against_counting_loop(self):
        rng = np.random.default_rng(70)
        Z = unit_rows(rng, 20, 6)
        labels = rng.integers(0, 4, size=20)
        got = recall_at_k(retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True),
                          labels, ks=(1, 2, 5, 10))
        rankings = full_rankings(Z, Z, exclude_self=True)
        for k, value in got.items():
            assert value == recall_walk(rankings, labels, labels, k)

    def test_split_gallery_labels(self):
        rng = np.random.default_rng(71)
        G = unit_rows(rng, 12, 5)
        Q = unit_rows(rng, 5, 5)
        g_labels = rng.integers(0, 3, size=12)
        q_labels = rng.integers(0, 3, size=5)
        got = recall_at_k(retrieve(RetrievalIndex(gallery=G), Q), q_labels,
                          ks=(1, 3), gallery_labels=g_labels)
        rankings = full_rankings(G, Q)
        for k, value in got.items():
            assert value == recall_walk(rankings, q_labels, g_labels, k)

    def test_perfect_and_zero_cases(self):
        Z = np.eye(4)
        labels = np.array([0, 0, 1, 1])
        retrieval = retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True)
        got = recall_at_k(retrieval, labels, ks=(3,))
        assert got[3] == 1.0  # every query finds its partner within 3

    def test_no_positive_anywhere_raises(self):
        Z = np.eye(3)
        labels = np.array([0, 1, 2])  # all classes singletons
        retrieval = retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True)
        with pytest.raises(ProtocolError):
            recall_at_k(retrieval, labels, ks=(1,))

    def test_k_beyond_depth_raises(self):
        Z = np.eye(3)
        labels = np.array([0, 0, 1])
        retrieval = retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True)
        with pytest.raises(ProtocolError):
            recall_at_k(retrieval, labels, ks=(3,))  # depth is 2 after exclusion

    def test_nonpositive_k_raises(self):
        Z = np.eye(2)
        labels = np.array([0, 0])
        retrieval = retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True)
        with pytest.raises(ProtocolError):
            recall_at_k(retrieval, labels, ks=(0,))

    @pytest.mark.parametrize("k", [1.9, 2.0, "2", True])
    def test_cutoff_that_is_not_an_integer_raises(self, k):
        # int(1.9) would read K as 1 and give {1: 0.5}.
        Z = np.eye(4)
        retrieval = retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True)
        with pytest.raises(ProtocolError, match="positive integers"):
            recall_at_k(retrieval, np.array([0, 0, 1, 1]), ks=(k,))

    def test_numpy_integer_cutoffs_are_accepted(self):
        Z = np.eye(4)
        retrieval = retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True)
        got = recall_at_k(retrieval, np.array([0, 0, 1, 1]), ks=np.array([1, 3]))
        assert got == {1: 0.5, 3: 1.0}

    def test_label_count_mismatch(self):
        Z = np.eye(3)
        retrieval = retrieve(RetrievalIndex(gallery=Z), Z)
        with pytest.raises(ShapeError):
            recall_at_k(retrieval, np.array([0, 1]), ks=(1,))


class TestQueryGroundTruth:
    def test_overlap_raises(self):
        with pytest.raises(ProtocolError):
            gt(easy=[1, 2], hard=[2, 3])

    def test_duplicates_raise(self):
        with pytest.raises(ProtocolError):
            gt(easy=[1, 1])

    @pytest.mark.parametrize(
        "sets, message",
        [
            (dict(easy=[4, 1, 4], hard=[2], junk=[3]), "easy contains duplicate gallery indices"),
            (dict(easy=[1], hard=[2, 5, 2], junk=[3]), "hard contains duplicate gallery indices"),
            (dict(easy=[1], hard=[2], junk=[3, 3]), "junk contains duplicate gallery indices"),
            (dict(easy=[1, 6], hard=[6, 2], junk=[3]), "easy and hard sets overlap"),
            (dict(easy=[1, 7], hard=[2], junk=[7, 3]), "easy and junk sets overlap"),
            (dict(easy=[1], hard=[2, 8], junk=[8, 3]), "hard and junk sets overlap"),
            # a set's own repeat is named before any overlap, in set order
            (dict(easy=[1, 2], hard=[2, 2], junk=[1, 1]), "hard contains duplicate gallery indices"),
        ],
    )
    def test_each_repeat_is_named(self, sets, message):
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            gt(**sets)

    def test_earlier_duplicate_is_named_before_a_later_bad_type(self):
        with pytest.raises(ProtocolError, match="^easy contains duplicate gallery indices$"):
            QueryGroundTruth(easy=np.array([1, 1]), hard=np.array([0.5]), junk=np.array([2]))
        with pytest.raises(ProtocolError, match="^hard must be a 1-D integer array$"):
            QueryGroundTruth(easy=np.array([1, 2]), hard=np.array([0.5]), junk=np.array([2]))

    def test_bounds_check(self):
        record = gt(easy=[1], hard=[5])
        with pytest.raises(ProtocolError):
            record.check_bounds(4)
        record.check_bounds(6)

    def test_empty_sets_are_fine(self):
        record = gt(easy=[0])
        assert record.hard.size == 0
        assert record.junk.size == 0


class TestAveragePrecision:
    def test_hand_worked_example(self):
        record = gt(easy=[0], hard=[3], junk=[1])
        assert_allclose(single_ap(range(6), record, "medium"), 5.0 / 6.0, rtol=1e-15)
        assert single_ap(range(6), record, "hard") == 0.5
        assert single_ap(range(6), record, "easy") == 1.0

    def test_all_permutations_of_small_gallery(self):
        record = gt(easy=[0, 4], hard=[2], junk=[5])
        splits = ("medium", "hard", "easy")
        for perm in itertools.permutations(range(6)):
            got = mean_average_precision(ranked(perm), [record], splits)
            for split in splits:
                positives, junk = {
                    "medium": ([0, 4, 2], [5]),
                    "hard": ([2], [5, 0, 4]),
                    "easy": ([0, 4], [5, 2]),
                }[split]
                expected = ap_walk(perm, positives, junk)
                assert got[split] == (expected, [])

    def test_junk_is_removed_not_penalized(self):
        # positive buried behind junk still scores a perfect AP
        record = gt(easy=[0], junk=[3, 4])
        assert single_ap([3, 4, 0, 1, 2], record, "medium") == 1.0

    def test_no_positives_under_split_raises(self):
        with pytest.raises(ProtocolError):
            mean_average_precision(ranked(range(4)), [gt(easy=[1])], ("hard",))

    def test_unknown_split_raises(self):
        with pytest.raises(ProtocolError):
            mean_average_precision(ranked(range(2)), [gt(easy=[0])], ("extreme",))


class TestMeanAveragePrecision:
    def test_skips_empty_queries_and_reports_them(self):
        gallery, query = circle_ranking(range(3))
        retrieval = retrieve(RetrievalIndex(gallery), np.repeat(query, 3, axis=0))
        records = [gt(easy=[0]), gt(junk=[1]), gt(hard=[2])]
        value, skipped = mean_average_precision(retrieval, records, ("easy",))["easy"]
        assert skipped == [1, 2]
        assert value == single_ap(range(3), records[0], "easy")

    def test_mean_is_fsum_over_scored(self):
        rng = np.random.default_rng(72)
        Z = unit_rows(rng, 10, 5)
        Q = unit_rows(rng, 4, 5)
        records = [
            gt(easy=[1, 2], hard=[3]),
            gt(hard=[0]),
            gt(easy=[5], junk=[6, 7]),
            gt(easy=[8], hard=[9, 2], junk=[0]),
        ]
        value, skipped = mean_average_precision(
            retrieve(RetrievalIndex(gallery=Z), Q), records, ("medium",)
        )["medium"]
        assert skipped == []
        expected = math.fsum(
            ap_walk(r, *split_sets(g, "medium"))
            for r, g in zip(full_rankings(Z, Q), records)
        ) / len(records)
        assert value == expected

    def test_all_skipped_raises(self):
        with pytest.raises(ProtocolError):
            mean_average_precision(ranked(range(2)), [gt(junk=[0])], ("medium",))

    def test_length_mismatch_raises(self):
        gallery, query = circle_ranking(range(2))
        retrieval = retrieve(RetrievalIndex(gallery), np.repeat(query, 2, axis=0))
        with pytest.raises(ShapeError):
            mean_average_precision(retrieval, [gt(easy=[0])], ("medium",))

    def test_exclude_self_retrieval_raises(self):
        Z = np.eye(3)
        retrieval = retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True)
        with pytest.raises(ProtocolError, match="exclude_self"):
            mean_average_precision(retrieval, [gt(easy=[1])] * 3, ("medium",))


# ---------------------------------------------------------------------------
# blocked scoring and rank counting vs full rankings
# ---------------------------------------------------------------------------


def random_ground_truths(rng, num_queries, gallery_size):
    records = []
    for _ in range(num_queries):
        roles = rng.choice(4, size=gallery_size, p=[0.2, 0.2, 0.2, 0.4])
        records.append(gt(easy=np.flatnonzero(roles == 0), hard=np.flatnonzero(roles == 1),
                          junk=np.flatnonzero(roles == 2)))
    return records


def block_sizes(num_queries):
    """Block sizes to try: the smallest ones, the query count and one less,
    and the one ``SCORE_BLOCK_BYTES`` gives."""
    return [b for b in (2, 3, num_queries - 1, num_queries) if b >= 2] + [None]


class TestScreenThresholds:
    """Rows outside the screen's proven range get bounds that decide nothing."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("center", [0.5, -np.inf])
    @pytest.mark.parametrize("case", ["row-norm", "norm-bound", "dim"])
    def test_unproven_rows_get_infinite_bounds_never_nan(self, case, center, dtype):
        # Row norms 1 (proven unless the norm bound or the dim is not), just
        # past 2**60, 1e300 (its slack overflows) and inf.
        z_norm = np.array([1.0, 2.0**60 * (1 + 2.0**-52), 1e300, np.inf])
        norm_bound = 2.0**61 if case == "norm-bound" else 1.0
        d = 2**22 + 1 if case == "dim" else 16
        below, above = _screen._screen_thresholds(z_norm, d, norm_bound,
                                                  np.full(4, center), dtype)
        assert below.dtype == above.dtype == dtype
        assert not np.isnan(below).any() and not np.isnan(above).any()
        unproven = slice(0 if case != "row-norm" else 1, None)
        assert np.all(below[unproven] == -np.inf) and np.all(above[unproven] == np.inf)
        if case == "row-norm" and center == 0.5:
            assert -np.inf < below[0] < center < above[0] < np.inf


class TestPlaces:
    @pytest.mark.parametrize("width", [1, 2, 3, 7, 1024, 1025])
    def test_equals_searchsorted_per_row(self, width):
        # Coarse scores with many ties, signed zeros and infinities, against
        # bounds drawn from the same values and from between them.
        rng = np.random.default_rng(width)
        values = np.array([-np.inf, -1.0, -0.5, -0.0, 0.0, 2.0**-149, 0.25, 1.0, np.inf],
                          dtype=np.float32)
        ranked = np.sort(rng.choice(values, size=(40, width)), axis=1)
        rows = np.sort(rng.integers(0, 40, size=300))
        bounds = np.where(rng.random((300, 2)) < 0.5, rng.choice(values, size=(300, 2)),
                          rng.uniform(-1.5, 1.5, size=(300, 2))).astype(np.float32)
        expected = np.stack([np.searchsorted(ranked[q], b) for q, b in zip(rows, bounds)])
        assert_array_equal(evaluation._places(ranked, rows, bounds), expected)


class TestScoreBlocks:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    @pytest.mark.parametrize("m", [1, 5, 13])
    @pytest.mark.parametrize("rows", [1, 3, 4, 16])
    @pytest.mark.parametrize("upper", [False, True])
    def test_tiles_cover_every_pair_once_in_row_major_order(self, monkeypatch, n, m, rows,
                                                            upper):
        # Without `upper`, n queries against m gallery rows. With it, the n
        # rows against themselves in strips of m rows (_TILE_ROWS // 4): of
        # one row, several to a span, or one over each span.
        rng = np.random.default_rng(92)
        Q = unit_rows(rng, n, 4)
        G = Q if upper else unit_rows(rng, m, 4)
        monkeypatch.setattr(_screen, "_TILE_ROWS", 4 * m)
        for values, within in itertools.product((1, 6, 100), (None, (n // 3, n))):
            begin, end = within or (0, n)
            # A row's strip starts at a multiple of m rows into its span.
            first_row = np.arange(n) - (np.arange(n) - begin) % rows % m
            expected = np.zeros((n, G.shape[0]), dtype=np.int64)
            for row in range(begin, end):  # with upper, from its strip's first row
                expected[row, first_row[row] if upper else 0:] = 1
            covered = np.zeros_like(expected)
            order, spans = [], _screen._span_tiles(Q, G, rows, values, upper, within)
            for start, stop, tiles in spans:
                assert (start - begin) % rows == 0 and stop == min(start + rows, end)
                for tile_start, first, S in tiles:
                    last, strip = first + S.shape[1], upper and first < stop
                    if strip:  # rows a..b of the span, columns a..stop
                        assert (tile_start - start) % m == 0 and tile_start <= first
                        assert S.shape[0] == min(m, stop - tile_start) and last <= stop
                    else:
                        assert tile_start == start and S.shape[0] == stop - start
                    assert S.size <= max(values, S.shape[0])  # at least one column
                    tile_rows = slice(tile_start, tile_start + S.shape[0])
                    assert_array_equal(S, Q[tile_rows] @ G[first:last].T)
                    covered[tile_rows, first:last] += 1
                    # Row-major: the strips in row order, then the columns past the span.
                    order.append((start, not strip, tile_start, first))
            assert_array_equal(covered, expected)
            assert order == sorted(order)
            if upper:
                # Each unordered pair of the rows once, but the pairs within
                # one strip's diagonal block, twice.
                block = (first_row[:, None] == first_row)[begin:end, begin:end]
                pairs = covered[begin:end, begin:end]
                assert_array_equal(pairs + pairs.T, 1 + block)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
    @pytest.mark.parametrize("m", [1, 5, 13])
    @pytest.mark.parametrize("values", [3, 4, 16])
    def test_memory_blocks_keep_whole_anchor_rows(self, monkeypatch, n, m, values):
        # The memory term reads a tile's memory rows from its start alone, so
        # a block holds whole anchor rows: as many memory rows as fit `values`
        # scores, and one where more anchors than `values` do not fit.
        rng = np.random.default_rng(93)
        Z, mem_Z = unit_rows(rng, n, 4), unit_rows(rng, m, 4)
        shapes, spans = [], _screen._span_tiles

        def spied(*args):
            for start, stop, tiles in spans(*args):
                yield start, stop, (shapes.append(tile[:2] + tile[2].shape) or tile
                                    for tile in tiles)
        monkeypatch.setattr(_screen, "_span_tiles", spied)
        monkeypatch.setattr(objective, "_BLOCK_VALUES", values)
        # A margin below every score makes every pair active on float32
        # tiles, which a share of 1 keeps.
        monkeypatch.setattr(_screen, "_PER_PAIR_SHARE", 1.0)
        _, _, (rows, anchors) = objective._memory_pairs(
            Z, np.zeros(n, dtype=np.int64), mem_Z, np.ones(m, dtype=np.int64),
            mem_Z.astype(np.float32), 1.0 + 1e-9, -2.0)
        # Every pair once, memory row by memory row.
        assert_array_equal(np.stack([rows, anchors]), np.divmod(np.arange(m * n), n))
        block = max(1, values // n)
        assert shapes == [(start, 0, min(block, m - start), n) for start in range(0, m, block)]

    def test_default_rows_follow_the_byte_budget(self):
        Q = np.eye(4)[[0, 1] * 300]
        G = np.eye(4)[[0, 1, 2, 3] * 100]
        rows = evaluation.SCORE_BLOCK_BYTES // (8 * G.shape[0])
        sizes = []

        spans = _screen._span_tiles

        def spy(queries, *args, **kwargs):
            for start, stop, tiles in spans(queries, *args, **kwargs):
                if queries.dtype == np.float32:  # not a float64 fallback
                    sizes.append(stop - start)
                yield start, stop, tiles
        with mock.patch.object(_screen, "_span_tiles", spy):
            recall_at_k(retrieve(RetrievalIndex(G), Q), np.zeros(600, np.int64), (1,),
                        gallery_labels=np.zeros(400, np.int64))
        assert sizes[0] == min(rows, Q.shape[0])
        assert sum(sizes) == Q.shape[0]

    @pytest.mark.parametrize("m, budget, shape", [
        (4000, None, (1048, 500)), (60000, None, (512, 1024)),
        (32000, 2**20, (90, 182)), (4000, 2**20, (90, 182)),
    ])
    def test_metric_tiles_keep_their_shape(self, m, budget, shape):
        # The default budget's spans hold 512 rows or more, in tiles of 2 MiB
        # of float32 scores; a smaller budget shrinks the row floor with the
        # tile instead of thinning it (512 x 32 at 1 MiB).
        X = np.zeros((m, 1), dtype=np.float32)
        budget = budget or evaluation.SCORE_BLOCK_BYTES
        start, stop, tiles = next(_screen._metric_spans(X, X, budget))
        _, first, S = next(tiles)
        assert (start, first) == (0, 0)
        assert (stop - start, S.shape[1]) == shape

    @pytest.mark.parametrize("share", [None, 0.0])
    def test_tile_shape_changes_no_byte(self, share):
        # Random rows, so a product's last bits can move with its shape (a
        # 1-row span is a matrix-vector product): no output may. Shapes are
        # the defaults, 1-row spans and tiles of 3 x 5 of every blocked
        # product (a fallback's span keeps its rows), and memory blocks of 1
        # and 3 rows. A share of 0 sends the memory term, every mining span
        # and every histogram span with an undecided pair to float64 tiles.
        rng = np.random.default_rng(94)
        G, Q, A = unit_rows(rng, 40, 48), unit_rows(rng, 7, 48), unit_rows(rng, 10, 48)
        pool, Z, mem_Z = unit_rows(rng, 300, 48), unit_rows(rng, 8, 48), unit_rows(rng, 300, 48)
        labels, q_labels = rng.integers(0, 4, size=40), rng.integers(0, 4, size=7)
        pool_labels, exclude = rng.integers(0, 30, size=300), rng.integers(0, 30, size=10)
        records = random_ground_truths(rng, 7, 40)
        probe = LabeledEmbeddingBatch(Z, np.arange(8) % 4)
        view = MemoryView(mem_Z, rng.integers(0, 12, size=300))
        index, ks = RetrievalIndex(G), (1, 2, 4, 8)
        span_tiles = _screen._span_tiles

        def outputs(rows=None, columns=None):
            def shaped(queries, gallery, span, values, upper=False, within=None):
                span = span if within else rows
                return span_tiles(queries, gallery, span, span * columns, upper, within)
            with contextlib.ExitStack() as stack:
                if share is not None:
                    stack.enter_context(mock.patch.object(_screen, "_PER_PAIR_SHARE", share))
                if rows:
                    stack.enter_context(mock.patch.object(objective, "_BLOCK_VALUES", rows * 8))
                # The memory term's tiles keep whole anchor rows: its blocks
                # alone change shape.
                loss = contrastive_loss(probe, view, 0.3)
                if rows:
                    stack.enter_context(mock.patch.object(_screen, "_span_tiles", shaped))
                recall = [recall_at_k(retrieve(index, G, exclude_self=True), labels, ks),
                          recall_at_k(retrieve(index, Q), q_labels, ks, gallery_labels=labels)]
                maps = mean_average_precision(retrieve(index, Q), records, evaluation.SPLITS)
                hist = similarity_histograms(G, labels)
                negatives = mine_hard_negatives(A, pool, pool_labels, exclude, 2)
            return [np.array([list(r.values()) for r in recall]).tobytes(),
                    np.array([ap for ap, _ in maps.values()]).tobytes(),
                    np.array([q for _, skipped in maps.values() for q in skipped]).tobytes(),
                    hist.positive_counts.tobytes(), hist.negative_counts.tobytes(),
                    negatives.tobytes(), np.float64(loss.value).tobytes(), loss.grad.tobytes()]
        default = outputs()
        assert outputs(1, 10**6) == default
        assert outputs(3, 5) == default

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 11])
    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 10])
    def test_self_blocks_are_the_trapezoids_of_the_same_blocks(self, monkeypatch, n, rows):
        # Quantized rows make every product exact, whatever its shape. In
        # strips of 2 rows, an upper span's tiles are its full block's
        # entries from each row's strip start on, each once.
        X = quantized_unit_rows(np.random.default_rng(91), n, 8, 5)
        monkeypatch.setattr(_screen, "_TILE_ROWS", 8)
        full = [next(tiles) for _, _, tiles in _screen._span_tiles(X, X, rows, rows * n)]
        halves = list(_screen._span_tiles(X, X, rows, rows * n, upper=True))
        assert [span[:2] for span in halves] == [(s, min(s + rows, n)) for s, _, _ in full]
        for (start, _, S), (_, stop, tiles) in zip(full, halves):
            staircase = np.zeros_like(S)
            for a, first, T in tiles:
                part = np.s_[a - start : a - start + T.shape[0], first : first + T.shape[1]]
                assert_array_equal(T, S[part])
                staircase[part] += 1
            strip_start = start + (np.arange(stop - start) // 2) * 2
            assert_array_equal(staircase, np.arange(n) >= strip_start[:, None])

    def test_strips_cut_the_scores_of_upper_spans(self):
        # Leave-one-out at 4,000 rows: spans of 1,048 rows whose diagonal
        # squares, whole, made 10,013,824 scores for 7,998,000 pairs; in
        # strips of 128 rows, 8,250,496.
        n = 4000
        X = np.zeros((n, 1), dtype=np.float32)
        spans = _screen._metric_spans(X, X, evaluation.SCORE_BLOCK_BYTES, upper=True)
        sizes = [S.size for _, _, tiles in spans for _, _, S in tiles]
        assert n * (n - 1) // 2 < sum(sizes) <= 8_500_000


class TestBlockedRecall:
    def test_ties_straddling_k(self):
        # items 0-2 tie with the query; only item 2 shares its label
        e0, e1 = np.eye(3)[0], np.eye(3)[1]
        G = np.stack([e0, e0, e0, e1])
        index = RetrievalIndex(gallery=G)
        got = recall_at_k(retrieve(index, e0[None, :]), np.array([1]), (1, 2, 3, 4),
                          gallery_labels=np.array([0, 0, 1, 1]))
        assert got == {1: 0.0, 2: 0.0, 3: 1.0, 4: 1.0}

    def test_self_is_excluded_even_when_tied(self):
        Z = np.eye(2)[[0, 0, 0, 1]]
        labels = np.array([0, 1, 0, 0])
        got = recall_at_k(retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True),
                          labels, (1, 2))
        rankings = full_rankings(Z, Z, exclude_self=True)
        ref = {k: recall_walk(rankings, labels, labels, k) for k in (1, 2)}
        assert got == ref == {1: 0.5, 2: 0.75}

    def test_errors_match_reference(self):
        Z = np.eye(3)
        index = RetrievalIndex(gallery=Z)
        loo = retrieve(index, Z, exclude_self=True)
        with pytest.raises(ProtocolError, match="K=3 exceeds usable ranking depth 2"):
            recall_at_k(loo, np.array([0, 0, 1]), (3,))
        with pytest.raises(ProtocolError, match="no query"):
            recall_at_k(loo, np.array([0, 1, 2]), (1,))
        with pytest.raises(ProtocolError):
            recall_at_k(retrieve(index, Z), np.array([0, 0, 1]), (0,))
        with pytest.raises(ShapeError):
            recall_at_k(retrieve(index, Z[:, :2]), np.array([0, 0, 1]), (1,))
        with pytest.raises(ShapeError):
            recall_at_k(retrieve(index, Z[:2], exclude_self=True), np.array([0, 0]), (1,))
        with pytest.raises(ShapeError):
            recall_at_k(retrieve(index, Z), np.array([0, 0]), (1,))
        with pytest.raises(ShapeError):
            recall_at_k(retrieve(index, Z[:2]), np.array([0, 0]), (1,),
                        gallery_labels=np.array([0, 0]))

    @pytest.mark.parametrize("exclude_self", [False, True])
    def test_row_blocks_with_many_positives_are_screened(self, monkeypatch, exclude_self):
        # Blocks of 6 queries against 12 gallery rows. Block 0's queries
        # share class 0 with gallery rows 0-5, 36 positives (30 with self
        # excluded), half of the block's pairs; block 1's have 6. Both are
        # screened, whatever the share. Under exclude_self the queries are
        # the gallery rows doubled, off the unit sphere and not the
        # gallery's array, so the full-row blocks must mask each query's own
        # entry (score 2).
        rng = np.random.default_rng(98)
        G = unit_rows(rng, 12, 8)
        if exclude_self:
            Q, labels = 2 * G, np.array([0] * 6 + [1, 1, 2, 2, 3, 3])
        else:
            Q, labels = unit_rows(rng, 12, 8), np.array([0] * 6 + [1, 2, 3, 4, 5, 6])
        rankings = full_rankings(G, Q, exclude_self=exclude_self)
        ks = range(1, 12)
        expected = {k: recall_walk(rankings, labels, labels, k) for k in ks}
        routes = screen_routes(monkeypatch)
        monkeypatch.setattr(_screen, "_PER_PAIR_SHARE", 1 / 8)
        retrieval = retrieve(RetrievalIndex(gallery=G), Q, exclude_self=exclude_self)
        assert retrieval.queries is not retrieval.index.gallery
        with budget_for_rows(evaluation, "SCORE_BLOCK_BYTES", 6, 12):
            assert recall_at_k(retrieval, labels, ks, gallery_labels=labels) == expected
        assert routes == {"screened": 2}
        assert not routes.tiles["float64"]

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(2, 40),
        d=st.sampled_from([4, 8, 16]),
        pool=st.integers(1, 12),
        num_labels=st.integers(1, 6),
        split=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_ranking(self, n, d, pool, num_labels, split, seed):
        rng = np.random.default_rng(seed)
        G = quantized_unit_rows(rng, n, d, pool)
        g_labels = rng.integers(0, num_labels, size=n)
        if split:
            Q = quantized_unit_rows(rng, int(rng.integers(1, 30)), d, pool)
            q_labels = rng.integers(0, num_labels, size=Q.shape[0])
            kwargs = {"gallery_labels": g_labels}
        else:
            Q, q_labels, kwargs = G, g_labels, {}
        exclude_self = not split
        depth = n - int(exclude_self)
        ks = sorted({1, depth, *rng.integers(1, depth + 1, size=3).tolist()})
        rankings = full_rankings(G, Q, exclude_self=exclude_self)
        any_positive = any(np.any(g_labels[r] == label) for r, label in zip(rankings, q_labels))
        expected = {k: recall_walk(rankings, q_labels, g_labels, k) for k in ks}
        index = RetrievalIndex(gallery=G)
        retrieval = retrieve(index, Q, exclude_self=exclude_self)
        for rows in block_sizes(Q.shape[0]):
            with budget_for_rows(evaluation, "SCORE_BLOCK_BYTES", rows, n):
                if any_positive:
                    assert recall_at_k(retrieval, q_labels, ks, **kwargs) == expected
                else:
                    with pytest.raises(ProtocolError, match="no query"):
                        recall_at_k(retrieval, q_labels, ks, **kwargs)


def unproven_first_thresholds():
    """Give the first threshold of every ``_query_bounds`` call the bounds
    of a row outside the screen's proven range (a norm above 2**60), which
    a unit gallery cannot hold: -inf and +inf, so every item of its line is
    scored in float64."""
    bounds = evaluation._query_bounds

    def unproven(*args):
        below, above = bounds(*args)
        below[:1], above[:1] = -np.inf, np.inf
        return below, above
    return mock.patch.object(evaluation, "_query_bounds", unproven)


class TestSelfScoredRecall:
    """Leave-one-out recall over a gallery scored against itself once per
    pair, its blocks' own queries row-wise and later ones column-wise."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(2, 40),
        d=st.sampled_from([4, 8, 16]),
        pool=st.integers(1, 12),
        num_labels=st.integers(1, 6),
        rows=st.sampled_from([2, 3, None]),
        unproven=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_ranking(self, n, d, pool, num_labels, rows, unproven, seed):
        rng = np.random.default_rng(seed)
        G = quantized_unit_rows(rng, n, d, pool)
        labels = rng.integers(0, num_labels, size=n)
        rankings = full_rankings(G, G, exclude_self=True)
        if not any(np.any(labels[r] == label) for r, label in zip(rankings, labels)):
            return
        ks = range(1, n)
        expected = {k: recall_walk(rankings, labels, labels, k) for k in ks}
        retrieval = retrieve(RetrievalIndex(gallery=G), G, exclude_self=True)
        assert retrieval.queries is retrieval.index.gallery
        with budget_for_rows(evaluation, "SCORE_BLOCK_BYTES", rows, n), \
                (unproven_first_thresholds() if unproven else contextlib.nullcontext()):
            assert recall_at_k(retrieval, labels, ks) == expected

    def test_blocks_with_many_ties_are_screened(self, monkeypatch):
        # Blocks of 6 rows. Block 0 is one class, 30 positives. Rows 6-10,
        # each its own class, and block 3 (rows 18-23, three classes) are
        # one direction, so each query of block 3 ties 10 items with its
        # best positive, 30 of them in block 1's columns. Every block is
        # screened, whatever the share, and scores its ties in row dots.
        rng = np.random.default_rng(97)
        G = unit_rows(rng, 24, 8)
        G[6:11] = G[18:24] = np.eye(8)[0]
        labels = np.array([0] * 6 + [20, 21, 22, 23, 24] + [1, 1, 2, 2, 3, 3, 4]
                          + [7, 7, 8, 8, 9, 9])
        rankings = full_rankings(G, G, exclude_self=True)
        ks = range(1, 24)
        expected = {k: recall_walk(rankings, labels, labels, k) for k in ks}
        routes = screen_routes(monkeypatch)
        monkeypatch.setattr(_screen, "_PER_PAIR_SHARE", 1 / 8)
        retrieval = retrieve(RetrievalIndex(gallery=G), G, exclude_self=True)
        with budget_for_rows(evaluation, "SCORE_BLOCK_BYTES", 6, 24):
            assert recall_at_k(retrieval, labels, ks) == expected
        assert routes == {"screened": 4}
        assert not routes.tiles["float64"]


class TestSelfScoredThresholds:
    """Leave-one-out queries that are the gallery, with its labels, score
    each unordered same-label pair once for their thresholds."""

    @pytest.mark.parametrize("d", [3, 16, 128, 384])
    def test_row_dots_are_symmetric_bit_for_bit(self, d):
        rng = np.random.default_rng(d)
        A = rng.standard_normal((300, d)) * rng.uniform(1e-3, 1e3, size=(300, 1))
        i, j = rng.integers(0, 300, size=(2, 20000))
        for values in (d, 7 * d, 2**16):
            forward = _screen._row_dots(A, i, A, j, values)
            backward = _screen._row_dots(A, j, A, i, values)
            assert_array_equal(forward.view(np.int64), backward.view(np.int64))

    @pytest.mark.parametrize("seed", range(8))
    def test_both_ends_give_the_one_sided_thresholds(self, monkeypatch, seed):
        # Quantized rows tie often, so the lowest-index rule decides many
        # thresholds; chunks of 1 and 7 pairs split the runs anywhere.
        rng = np.random.default_rng(seed)
        n = 60
        G = quantized_unit_rows(rng, n, 8, int(rng.integers(2, 10)))
        labels = rng.integers(0, int(rng.integers(1, 6)), size=n)
        retrieval = retrieve(RetrievalIndex(gallery=G), G, exclude_self=True)
        by_label, run_start, run_size = evaluation._label_runs(labels, labels)
        later = np.empty(n, dtype=np.int64)
        later[by_label] = np.arange(1, n + 1)
        scored, dots = [], evaluation._query_dots

        def counted(retrieval, queries, items):
            scored.append(queries.size)
            return dots(retrieval, queries, items)
        monkeypatch.setattr(evaluation, "_query_dots", counted)
        sizes = np.bincount(labels)
        for step in (1, 7, 2**16):
            with mock.patch.object(evaluation, "SCORE_BLOCK_BYTES", 512 * step):
                scored.clear()
                one = evaluation._thresholds(retrieval, by_label, run_start, run_size)
                assert sum(scored) == np.sum(sizes * (sizes - 1))
                scored.clear()
                both = evaluation._thresholds(retrieval, by_label, later,
                                              run_start + run_size - later, both_ends=True)
                assert sum(scored) == np.sum(sizes * (sizes - 1)) // 2
            for name in ("value", "item", "below", "above"):
                assert_array_equal(getattr(both, name), getattr(one, name))

    def test_other_gallery_labels_score_every_query_run(self):
        # The queries are the gallery, but the gallery labels are not the
        # query labels, so positives are not symmetric.
        rng = np.random.default_rng(7)
        G = quantized_unit_rows(rng, 30, 8, 5)
        labels = rng.integers(0, 3, size=30)
        g_labels = np.roll(labels, 1)
        rankings = full_rankings(G, G, exclude_self=True)
        expected = {k: recall_walk(rankings, labels, g_labels, k) for k in range(1, 30)}
        retrieval = retrieve(RetrievalIndex(gallery=G), G, exclude_self=True)
        assert recall_at_k(retrieval, labels, range(1, 30), gallery_labels=g_labels) == expected


class TestBlockedMeanAveragePrecision:
    def test_ties_among_positives_and_junk(self):
        # items 0-3 tie; junk 0 is dropped, so positive 1 ranks first and
        # positive 3 third (behind non-positive 2)
        e0, e1 = np.eye(2)
        G = np.stack([e0, e0, e0, e0, e1])
        index = RetrievalIndex(gallery=G)
        record = gt(easy=[1], hard=[3], junk=[0])
        got = mean_average_precision(retrieve(index, e0[None, :]), [record],
                                     ("easy", "medium", "hard"))
        assert got["medium"] == ((1.0 + 2.0 / 3.0) / 2.0, [])
        assert got["easy"] == (1.0, [])  # hard 3 is junk under easy
        assert got["hard"] == (0.5, [])  # easy 1 is junk under hard
        rankings = full_rankings(G, e0[None, :])
        for split, value in got.items():
            assert value == map_walk(rankings, [record], split)

    def test_errors_match_reference(self):
        index = RetrievalIndex(gallery=np.eye(3))
        retrieval = retrieve(index, np.eye(3)[:2])
        with pytest.raises(ProtocolError, match="every query is empty under the 'hard'"):
            mean_average_precision(retrieval, [gt(easy=[0]), gt(easy=[1])],
                                   ("medium", "hard"))
        with pytest.raises(ProtocolError, match="unknown difficulty split"):
            mean_average_precision(retrieval, [gt(easy=[0]), gt(easy=[1])], ("extreme",))
        with pytest.raises(ProtocolError):
            mean_average_precision(retrieval, [gt(easy=[0]), gt(easy=[3])], ("medium",))
        with pytest.raises(ShapeError):
            mean_average_precision(retrieval, [gt(easy=[0])], ("medium",))

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(1, 40),
        num_queries=st.integers(1, 20),
        d=st.sampled_from([4, 8, 16]),
        pool=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_ranking(self, n, num_queries, d, pool, seed):
        rng = np.random.default_rng(seed)
        G = quantized_unit_rows(rng, n, d, pool)
        Q = quantized_unit_rows(rng, num_queries, d, pool)
        records = random_ground_truths(rng, num_queries, n)
        rankings = full_rankings(G, Q)
        splits = ("easy", "medium", "hard")
        expected = {s: map_walk(rankings, records, s) for s in splits}
        index = RetrievalIndex(gallery=G)
        retrieval = retrieve(index, Q)
        for rows in block_sizes(num_queries):
            with budget_for_rows(evaluation, "SCORE_BLOCK_BYTES", rows, n):
                for split in splits:
                    if expected[split] is None:
                        with pytest.raises(ProtocolError, match="every query is empty"):
                            mean_average_precision(retrieval, records, (split,))
                    else:
                        got = mean_average_precision(retrieval, records, (split,))
                        assert got == {split: expected[split]}
                if all(value is not None for value in expected.values()):
                    assert mean_average_precision(retrieval, records, splits) == expected


class TestRankScreen:
    """Ranks counted from float32 blocks equal the full float64 rankings."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        protocol=st.sampled_from(["leave_one_out", "split", "map"]),
        n=st.integers(2, 30),
        num_queries=st.integers(1, 12),
        d=st.sampled_from([2, 3, 17, 64, 128]),
        quantized=st.booleans(),
        off_unit=st.booleans(),
        huge=st.booleans(),
        widths=st.floats(0.0, 3.0),
        rows=st.sampled_from([2, 3, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_ranking(self, protocol, n, num_queries, d, quantized, off_unit,
                                  huge, widths, rows, seed):
        rng = np.random.default_rng(seed)
        num_labels = int(rng.integers(1, 5))
        if quantized:
            # Scores are multiples of 1/16 in any evaluation: ties everywhere.
            pool = int(rng.integers(1, 8))
            G = quantized_unit_rows(rng, n, d, pool)
            Q = quantized_unit_rows(rng, num_queries, d, pool)
        else:
            G = unit_rows(rng, n, d)
            Q = unit_rows(rng, num_queries, d)
        if protocol == "leave_one_out":
            Q = G
        g_labels = rng.integers(0, num_labels, size=n)
        q_labels = g_labels if protocol == "leave_one_out" else rng.integers(
            0, num_labels, size=Q.shape[0])
        records = random_ground_truths(rng, Q.shape[0], n)
        if not quantized:
            # Rows within +-widths slack widths of a query's score of one of
            # its positives, at log-spread offsets from 1e-4 widths up, so
            # some land where the float32 screen cannot decide.
            anchors = rng.integers(0, Q.shape[0], size=n)
            targets = []
            for a in anchors:
                if protocol == "map":
                    positives = np.concatenate([records[a].easy, records[a].hard])
                else:
                    positives = np.flatnonzero(g_labels == q_labels[a])
                targets.append(rng.choice(positives) if positives.size else rng.integers(n))
            q_norms = np.linalg.norm(Q[anchors], axis=1)
            width = (2 * d + 8) * 2.0**-24 * q_norms
            offsets = rng.choice([-1.0, 1.0], size=n) * widths * 10.0 ** rng.uniform(-4, 0, n)
            scores = np.einsum("ij,ij->i", Q[anchors], G[targets]) + offsets * width
            near = rng.random(n) < 0.6
            near &= np.abs(scores) < 0.999 * q_norms
            G = G.copy()
            G[near] = rows_at_similarity(rng, Q[anchors[near]], scores[near])
            if protocol == "leave_one_out":
                Q = G
        # exclude_self only asks for as many queries as gallery rows, so the
        # leave-one-out queries may be off the sphere too.
        if off_unit:
            Q = Q * rng.uniform(0.99, 1.01, size=(Q.shape[0], 1))
        if huge:
            # Outside the screen's proven range: every item of its line is
            # scored in float64. 2**130 also overflows its float32 copy.
            Q = Q.copy()
            Q[0] *= 2.0 ** int(rng.choice([61, 130]))
        exclude_self = protocol == "leave_one_out"
        index = RetrievalIndex(gallery=G)
        retrieval = retrieve(index, Q, exclude_self=exclude_self)
        rankings = full_rankings(G, Q, exclude_self=exclude_self)
        with budget_for_rows(evaluation, "SCORE_BLOCK_BYTES", rows, n):
            if protocol == "map":
                for split in ("easy", "medium", "hard"):
                    expected = map_walk(rankings, records, split)
                    if expected is None:
                        continue
                    got = mean_average_precision(retrieval, records, (split,))
                    assert got == {split: expected}
                return
            ks = range(1, n - int(exclude_self) + 1)
            gallery_labels = None if exclude_self else g_labels
            expected = {k: recall_walk(rankings, q_labels, g_labels, k) for k in ks}
            if not any(np.any(g_labels[r] == label) for r, label in zip(rankings, q_labels)):
                return
            assert recall_at_k(retrieval, q_labels, ks, gallery_labels=gallery_labels) == expected


    @pytest.mark.parametrize("scale", [61, 130])
    @pytest.mark.parametrize("metric", ["recall", "map"])
    def test_unproven_query_is_scored_in_its_screened_block(self, monkeypatch, metric, scale):
        # Query 7 is scaled by 2**61 or 2**130, past the screen's proven
        # range (2**130 also overflows its float32 copy), so every item of
        # its line is scored in float64 while its block of 6 queries (rows
        # 6-11) is screened, as is block 0. The scaling is a power of 2, so
        # every score of the query scales exactly and its ranking stays that
        # of the unit row.
        rng = np.random.default_rng(99)
        G = unit_rows(rng, 12, 8)
        Q = unit_rows(rng, 12, 8)
        Q[7] *= 2.0**scale
        retrieval = retrieve(RetrievalIndex(gallery=G), Q)
        rankings = full_rankings(G, Q)
        labels = np.arange(12) % 6
        records = random_ground_truths(rng, 12, 12)
        records[7] = gt(easy=[1, 4], hard=[9], junk=[2])
        routes = screen_routes(monkeypatch)
        with budget_for_rows(evaluation, "SCORE_BLOCK_BYTES", 6, 12):
            if metric == "recall":
                ks = range(1, 13)
                got = recall_at_k(retrieval, labels, ks, gallery_labels=labels)
                assert got == {k: recall_walk(rankings, labels, labels, k) for k in ks}
            else:
                got = mean_average_precision(retrieval, records, ("medium", "hard"))
                assert got == {s: map_walk(rankings, records, s) for s in ("medium", "hard")}
        assert routes == {"screened": 2}
        assert not routes.tiles["float64"]


def blob_rows(rng, classes, per, d, sigma):
    """``per`` unit rows around each of ``classes`` random unit means, in
    class order, with their labels."""
    labels = np.repeat(np.arange(classes), per)
    X = unit_rows(rng, classes, d)[labels] + sigma * rng.standard_normal((labels.size, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True), labels


class TestDatasetShapes:
    """Galleries whose positives or band items are more than 1/128 of a
    row span's pairs, where the metrics once scored a span by its float64
    product: every span is screened, no float64 block is scored, and the
    metrics equal the oracles, with one span and with many."""

    SHAPES = [None, (64, 128)]

    def assert_recall(self, monkeypatch, G, labels, ks):
        # Leave-one-out over the gallery's own array, and every tenth row as
        # a split query against the rest.
        index = RetrievalIndex(G)
        loo = retrieve(index, G, exclude_self=True)
        rankings = full_rankings(G, G, exclude_self=True)
        expected_loo = {k: recall_walk(rankings, labels, labels, k) for k in ks}
        q = np.arange(G.shape[0]) % 10 == 0
        split = retrieve(RetrievalIndex(G[~q]), G[q])
        rankings = full_rankings(G[~q], G[q])
        expected_split = {k: recall_walk(rankings, labels[q], labels[~q], k) for k in ks}
        for shape in self.SHAPES:
            with metric_tiles(*shape) if shape else contextlib.nullcontext():
                routes = screen_routes(monkeypatch)
                assert recall_at_k(loo, labels, ks) == expected_loo, shape
                got = recall_at_k(split, labels[q], ks, gallery_labels=labels[~q])
                assert got == expected_split, shape
            assert routes["screened"] >= 2 and not routes.tiles["float64"]

    def test_cub_shaped_recall(self, monkeypatch):
        # 100 classes of 20 rows: 19 positives a query, 1/105 of the gallery.
        G, labels = blob_rows(np.random.default_rng(140), 100, 20, 64, 0.12)
        self.assert_recall(monkeypatch, G, labels, (1, 2, 4, 8, 100))

    def test_two_class_recall(self, monkeypatch):
        # Half the gallery is positive for every query.
        G = unit_rows(np.random.default_rng(141), 600, 16)
        self.assert_recall(monkeypatch, G, np.arange(600) % 2, (1, 2, 10, 300))

    def test_collapsed_recall_and_map(self, monkeypatch):
        # Every score lies within about 1e-5 of every other, inside every
        # threshold's band: every item is scored in row dots.
        rng = np.random.default_rng(142)
        G = unit_rows(rng, 1, 16) + 1e-3 * rng.standard_normal((600, 16))
        G /= np.linalg.norm(G, axis=1, keepdims=True)
        spread = np.ptp(G @ G.T)
        assert 1e-6 < spread < 1e-4, spread
        labels = np.arange(600) % 37
        self.assert_recall(monkeypatch, G, labels, (1, 2, 10, 100))
        Q = G[:50].copy()
        records = random_ground_truths(rng, 50, 600)
        rankings = full_rankings(G, Q)
        routes = screen_routes(monkeypatch)
        got = mean_average_precision(retrieve(RetrievalIndex(G), Q), records, evaluation.SPLITS)
        assert got == {s: map_walk(rankings, records, s) for s in evaluation.SPLITS}
        assert routes == {"screened": 1} and not routes.tiles["float64"]

    def test_roxford_shaped_map(self, monkeypatch):
        # 70 queries against 5,000 rows, each with 45 easy and 45 hard
        # positives near it and 30 junk items: 1/56 of the pairs are
        # thresholds.
        rng = np.random.default_rng(143)
        G = unit_rows(rng, 5000, 32)
        Q = unit_rows(rng, 70, 32)
        records = []
        for i in range(70):
            chosen = rng.choice(5000, size=120, replace=False)
            near = Q[i] + 0.25 * rng.standard_normal((90, 32))
            G[chosen[:90]] = near / np.linalg.norm(near, axis=1, keepdims=True)
            records.append(gt(easy=np.sort(chosen[:45]), hard=np.sort(chosen[45:90]),
                              junk=np.sort(chosen[90:])))
        rankings = full_rankings(G, Q)
        expected = {s: map_walk(rankings, records, s) for s in evaluation.SPLITS}
        retrieval = retrieve(RetrievalIndex(G), Q)
        for shape in self.SHAPES:
            with metric_tiles(*shape) if shape else contextlib.nullcontext():
                routes = screen_routes(monkeypatch)
                assert mean_average_precision(retrieval, records, evaluation.SPLITS) == expected
            assert routes["screened"] >= 1 and not routes.tiles["float64"]


def dense_histograms(Z, labels, num_bins):
    """Same-label and different-label np.histogram of the upper triangle of
    the full float64 product, outer edges open."""
    iu = np.triu_indices(len(Z), k=1)
    scores = (Z @ Z.T)[iu]
    same = labels[iu[0]] == labels[iu[1]]
    edges = np.linspace(-1.0, 1.0, num_bins + 1)
    edges[0], edges[-1] = -np.inf, np.inf
    return np.histogram(scores[same], edges)[0], np.histogram(scores[~same], edges)[0]


class TestTileShapes:
    """The metrics from float32 tiles of any shape equal the full-ranking and
    dense oracles, and so agree across shapes."""

    # Tile rows x columns: single columns, tiles inside a span's diagonal
    # square (fewer columns than rows), ragged edges; None is the default.
    SHAPES = [(2, 1), (3, 1), (4, 2), (2, 3), (5, 4), (3, 16), None]

    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(2, 40),
        num_queries=st.integers(1, 12),
        d=st.sampled_from([4, 8, 16]),
        pool=st.integers(1, 12),
        num_labels=st.integers(1, 6),
        tied=st.integers(0, 12),
        share=st.sampled_from([1 / 8, 1 / 3, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_metrics_match_the_oracles_across_tile_shapes(self, n, num_queries, d, pool,
                                                          num_labels, tied, share, seed):
        # Quantized rows score exactly, so every shape and route must give
        # the oracles' values. The first `tied` rows are one row, whose pairs
        # all tie: recall and mAP score them in row dots, and below a share
        # of 1 the histogram's span of them tends to fall back while later
        # spans are screened.
        rng = np.random.default_rng(seed)
        G = quantized_unit_rows(rng, n, d, pool)
        G[:tied] = G[0]
        Q = quantized_unit_rows(rng, num_queries, d, pool)
        labels = rng.integers(0, num_labels, size=n)
        q_labels = rng.integers(0, num_labels, size=num_queries)
        records = random_ground_truths(rng, num_queries, n)
        index = RetrievalIndex(G)
        loo, split = retrieve(index, G, exclude_self=True), retrieve(index, Q)
        expected = {}
        for name, retrieval, ks, q in (("loo", loo, range(1, n), labels),
                                       ("split", split, range(1, n + 1), q_labels)):
            rankings = full_rankings(G, retrieval.queries, exclude_self=name == "loo")
            if any(np.any(labels[r] == label) for r, label in zip(rankings, q)):
                expected[name] = {k: recall_walk(rankings, q, labels, k) for k in ks}
        map_expected = {s: map_walk(full_rankings(G, Q), records, s) for s in evaluation.SPLITS}
        positive, negative = dense_histograms(G, labels, 8)
        for shape in self.SHAPES:
            with (metric_tiles(*shape) if shape else contextlib.nullcontext()), \
                    mock.patch.object(_screen, "_PER_PAIR_SHARE", share):
                if "loo" in expected:
                    assert recall_at_k(loo, labels, range(1, n)) == expected["loo"], shape
                if "split" in expected:
                    got = recall_at_k(split, q_labels, range(1, n + 1), gallery_labels=labels)
                    assert got == expected["split"], shape
                for name, value in map_expected.items():
                    if value is not None:
                        got = mean_average_precision(split, records, (name,))
                        assert got == {name: value}, shape
                hist = similarity_histograms(G, labels, num_bins=8)
                assert_array_equal(hist.positive_counts, positive)
                assert_array_equal(hist.negative_counts, negative)

    @pytest.mark.parametrize("strip", [1, 2, 3, 7])
    @pytest.mark.parametrize("share", [1.0, 0.0])
    def test_strips_of_any_height_match_the_oracles(self, monkeypatch, strip, share):
        # Upper spans of 7, 16 and all 40 rows cut into strips of `strip`
        # rows (_TILE_ROWS // 4), so a strip's later rows count its earlier
        # ones down their columns. The first 6 rows are one row: their pairs
        # tie. A share of 0 screens each histogram span again in float64
        # tiles, cut into the same strips.
        rng = np.random.default_rng(132)
        G = quantized_unit_rows(rng, 40, 8, 6)
        G[:6] = G[0]
        labels = rng.integers(0, 4, size=40)
        rankings = full_rankings(G, G, exclude_self=True)
        expected = {k: recall_walk(rankings, labels, labels, k) for k in range(1, 40)}
        positive, negative = dense_histograms(G, labels, 8)
        loo = retrieve(RetrievalIndex(G), G, exclude_self=True)
        monkeypatch.setattr(_screen, "_TILE_ROWS", 4 * strip)
        monkeypatch.setattr(_screen, "_PER_PAIR_SHARE", share)
        for shape in [(7, 5), (16, 3), (10, 40)]:
            with metric_tiles(*shape):
                assert recall_at_k(loo, labels, range(1, 40)) == expected, shape
                hist = similarity_histograms(G, labels, num_bins=8)
                assert_array_equal(hist.positive_counts, positive)
                assert_array_equal(hist.negative_counts, negative)

    @pytest.mark.parametrize("shape", [(64, 1), (64, 7), (64, 32)])
    def test_a_tied_span_falls_back_only_in_the_histogram(self, monkeypatch, shape):
        # Spans of 64 of 300 rows, in pairs of one label. The first 64 rows
        # alternate two axes, so their pairs score exactly 1 or 0: a query
        # among them ties its positive (the other axis, score 0) with 32
        # items, and half their pairs lie on the histogram's edge 0. Recall
        # and mAP screen that span like the 4 spans of random rows, scoring
        # the ties in row dots; the histogram's span falls back.
        rng = np.random.default_rng(131)
        Z = np.concatenate([np.eye(16)[np.arange(64) % 2], unit_rows(rng, 236, 16)])
        labels = np.arange(300) // 2
        Q = Z[:150].copy()  # split queries: the full rows of each span
        records = [gt(easy=np.setdiff1d(np.flatnonzero(labels == labels[q]), q)[:4], junk=[q])
                   for q in range(150)]
        index = RetrievalIndex(Z)
        rankings = full_rankings(Z, Z, exclude_self=True)
        split_rankings = full_rankings(Z, Q)
        ks = (1, 2, 5, 20)
        with metric_tiles(*shape):
            routes = screen_routes(monkeypatch)
            got = recall_at_k(retrieve(index, Z, exclude_self=True), labels, ks)
            assert got == {k: recall_walk(rankings, labels, labels, k) for k in ks}
            assert routes == {"screened": 5}
            # Every span computes every tile of its trapezoid: its diagonal
            # square, one strip of its 64 rows (under strips of 128), and
            # the 236 columns past it, each in tiles of `shape[1]` columns.
            # No float64 block is scored.
            trapezoid = {"strip": -(-64 // shape[1]), "rows": -(-236 // shape[1])}
            assert routes.tiles["float32"][0, 64] == trapezoid
            assert not routes.tiles["float64"]

            routes = screen_routes(monkeypatch)
            got = recall_at_k(retrieve(index, Q), labels[:150], ks, gallery_labels=labels)
            assert got == {k: recall_walk(split_rankings, labels[:150], labels, k) for k in ks}
            assert routes == {"screened": 3}
            assert routes.tiles["float32"][0, 64] == {"rows": -(-300 // shape[1])}
            assert not routes.tiles["float64"]

            routes = screen_routes(monkeypatch)
            got = mean_average_precision(retrieve(index, Q), records, ("easy",))
            assert got == {"easy": map_walk(split_rankings, records, "easy")}
            assert routes == {"screened": 3}
            assert not routes.tiles["float64"]

            routes = histogram_routes(monkeypatch)
            hist = similarity_histograms(Z, labels)
            positive, negative = dense_histograms(Z, labels, 50)
            assert_array_equal(hist.positive_counts, positive)
            assert_array_equal(hist.negative_counts, negative)
            assert routes == {"screened": 4, "fallback": 1, "float64": 1,
                              "rescored": routes["rescored"]}
            assert routes.tiles["float32"][0, 64].total() < sum(trapezoid.values())


class TestBlockBudgetBoundsMemory:
    """Peak memory follows the score-block budgets, not gallery^2."""

    BUDGET = 2**20

    @pytest.mark.parametrize("caller", [
        "recall", "map", "histograms", "mining",
        "recall-d128", "map-d128", "recall-collapsed", "map-collapsed",
        "histograms-one-label", "histograms-d128", "histograms-collapsed",
        "recall-two-class", "mining-collapsed",
    ])
    def test_peak_stays_under_five_budgets(self, caller):
        # A full 4,000 x 4,000 score matrix would be 122 budgets. At d 128 the
        # gathered positive rows would be 9 budgets if they were not chunked.
        # In a collapsed gallery every row is within a few ULPs of one
        # direction, so every item is in its band and scored in row dots;
        # the histogram's pairs score about +1, past its last interior edge,
        # so its float32 screen decides them, while mining's float64 screen
        # keeps every entry until it cuts each anchor's to its top k. At d
        # 128 the histogram's float32 copy of the rows is 2 budgets. With one
        # label every pair is a same-label pair of the histogram.
        # With two classes every query has 2,000 positives, 8,000,000 pairs
        # that recall scores for its thresholds a bounded chunk at a time.
        caller, _, gallery = caller.partition("-")
        rng = np.random.default_rng(94)
        if gallery == "collapsed":
            Z = unit_rows(rng, 1, 16) + 1e-16 * rng.standard_normal((4000, 16))
            Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        else:
            Z = unit_rows(rng, 4000, 128 if gallery == "d128" else 16)
        labels = np.arange(4000) % (2 if gallery == "two-class" else 400)
        if gallery == "one-label":
            labels[:] = 0
        if caller == "recall":
            retrieval = retrieve(RetrievalIndex(Z), Z, exclude_self=True)
            run = partial(recall_at_k, retrieval, labels, (1, 10))
        elif caller == "map":
            records = []
            for _ in range(200):
                chosen = rng.choice(4000, size=30, replace=False)
                records.append(gt(easy=chosen[:10], hard=chosen[10:20], junk=chosen[20:]))
            retrieval = retrieve(RetrievalIndex(Z), Z[:200])
            run = partial(mean_average_precision, retrieval, records, ("medium", "hard"))
        elif caller == "histograms":
            run = partial(similarity_histograms, Z, labels)
        else:
            run = partial(mine_hard_negatives, Z[:500], Z, labels, labels[:500])
        with mock.patch.object(evaluation, "SCORE_BLOCK_BYTES", self.BUDGET), \
                mock.patch.object(trainer, "MINING_BLOCK_BYTES", self.BUDGET):
            tracemalloc.start()
            try:
                run()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 5 * self.BUDGET, peak / self.BUDGET

    @pytest.mark.parametrize("caller", ["recall", "map"])
    def test_peak_above_the_inputs_does_not_grow_with_the_gallery(self, caller):
        # 200 queries against 4,000 and 32,000 gallery rows at d 16, the same
        # budget: the tiles keep their size, so only the per-row inputs grow,
        # the gallery's float32 copy and its label sort (4 d + 32 bytes a row).
        peaks = []
        for m in (4000, 32000):
            rng = np.random.default_rng(95)
            Z = unit_rows(rng, m, 16)
            labels = np.arange(m) % 400
            retrieval = retrieve(RetrievalIndex(Z), Z[:200].copy())
            if caller == "recall":
                run = partial(recall_at_k, retrieval, labels[:200], (1, 10),
                              gallery_labels=labels)
            else:
                records = []
                for _ in range(200):
                    chosen = rng.choice(m, size=30, replace=False)
                    records.append(gt(easy=chosen[:10], hard=chosen[10:20], junk=chosen[20:]))
                run = partial(mean_average_precision, retrieval, records, ("medium", "hard"))
            with mock.patch.object(evaluation, "SCORE_BLOCK_BYTES", self.BUDGET):
                tracemalloc.start()
                try:
                    run()
                    peaks.append(tracemalloc.get_traced_memory()[1] - m * (4 * 16 + 32))
                finally:
                    tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 0.1 * self.BUDGET, [p / self.BUDGET for p in peaks]
