"""Retrieval, recall, and average-precision behavior.

Ranking order is checked against a pure-Python sort on (negated similarity,
position). Average precision is checked against a walk-the-ranking oracle
that skips junk and accumulates precision at each hit; recall against a
counting loop. Oracle arithmetic mirrors rank order term by term, so the
comparisons are exact, not approximate. The blocked rank-counting metrics
are checked against the full rankings on quantized inputs whose scores are
exact and full of ties, for several block sizes.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spherekit import (
    NumericalError,
    ProtocolError,
    QueryGroundTruth,
    RankedList,
    RetrievalIndex,
    average_precision,
    blocked_mean_average_precision,
    blocked_recall_at_k,
    mean_average_precision,
    recall_at_k,
    retrieve,
)
from spherekit.errors import ShapeError
from spherekit.evaluation import SCORE_BLOCK_BYTES, score_blocks

from conftest import quantized_unit_rows, unit_rows


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
        top = [int(i) for i in ranking.indices[:k]]
        if any(gallery_labels[i] == label for i in top):
            hits += 1
    return hits / len(rankings)


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
        rankings = retrieve(index, queries)
        sims = queries @ gallery.T
        for qi, ranking in enumerate(rankings):
            expected = sorted(range(15), key=lambda j: (-sims[qi, j], j))
            assert_array_equal(ranking.indices, expected)
            assert_array_equal(ranking.scores, sims[qi, ranking.indices])

    def test_ties_break_by_ascending_position(self):
        rng = np.random.default_rng(61)
        row = unit_rows(rng, 1, 5)[0]
        other = unit_rows(rng, 1, 5)[0]
        gallery = np.stack([other, row, other, row, other])  # exact duplicates
        index = RetrievalIndex(gallery=gallery)
        ranking = retrieve(index, row.reshape(1, -1))[0]
        assert_array_equal(ranking.indices[:2], [1, 3])
        assert_array_equal(ranking.indices[2:], [0, 2, 4])

    def test_exclude_self_drops_own_position(self):
        rng = np.random.default_rng(62)
        Z = unit_rows(rng, 8, 5)
        rankings = retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True)
        for i, ranking in enumerate(rankings):
            assert len(ranking) == 7
            assert i not in set(int(j) for j in ranking.indices)

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
        with pytest.raises(NumericalError, match="non-finite"):
            blocked_recall_at_k(index, Q, np.array([0, 0, 1]), (1,),
                                gallery_labels=np.array([0, 0, 1]))


class TestRetrievalIndex:
    def test_rejects_non_unit_gallery(self):
        rng = np.random.default_rng(65)
        G = unit_rows(rng, 5, 4)
        G[2] *= 0.9
        with pytest.raises(ShapeError, match="row 2"):
            RetrievalIndex(gallery=G)


class TestRankedList:
    def test_rejects_negative_indices(self):
        with pytest.raises(ShapeError):
            RankedList(indices=np.array([0, -1]), scores=np.array([0.9, 0.1]))

    def test_rejects_duplicate_indices(self):
        with pytest.raises(ShapeError):
            RankedList(indices=np.array([2, 2]), scores=np.array([0.9, 0.1]))

    def test_rejects_increasing_scores(self):
        with pytest.raises(ShapeError):
            RankedList(indices=np.array([0, 1]), scores=np.array([0.1, 0.9]))

    def test_accepts_tied_scores(self):
        r = RankedList(indices=np.array([0, 1]), scores=np.array([0.5, 0.5]))
        assert len(r) == 2


class TestRecallAtK:
    def test_against_counting_loop(self):
        rng = np.random.default_rng(70)
        Z = unit_rows(rng, 20, 6)
        labels = rng.integers(0, 4, size=20)
        rankings = retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True)
        got = recall_at_k(rankings, labels, ks=(1, 2, 5, 10))
        for k, value in got.items():
            assert value == recall_walk(rankings, labels, labels, k)

    def test_split_gallery_labels(self):
        rng = np.random.default_rng(71)
        G = unit_rows(rng, 12, 5)
        Q = unit_rows(rng, 5, 5)
        g_labels = rng.integers(0, 3, size=12)
        q_labels = rng.integers(0, 3, size=5)
        rankings = retrieve(RetrievalIndex(gallery=G), Q)
        got = recall_at_k(rankings, q_labels, ks=(1, 3), gallery_labels=g_labels)
        for k, value in got.items():
            assert value == recall_walk(rankings, q_labels, g_labels, k)

    def test_perfect_and_zero_cases(self):
        Z = np.eye(4)
        labels = np.array([0, 0, 1, 1])
        rankings = retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True)
        got = recall_at_k(rankings, labels, ks=(3,))
        assert got[3] == 1.0  # every query finds its partner within 3

    def test_no_positive_anywhere_raises(self):
        Z = np.eye(3)
        labels = np.array([0, 1, 2])  # all classes singletons
        rankings = retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True)
        with pytest.raises(ProtocolError):
            recall_at_k(rankings, labels, ks=(1,))

    def test_k_beyond_depth_raises(self):
        Z = np.eye(3)
        labels = np.array([0, 0, 1])
        rankings = retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True)
        with pytest.raises(ProtocolError):
            recall_at_k(rankings, labels, ks=(3,))  # depth is 2 after exclusion

    def test_nonpositive_k_raises(self):
        Z = np.eye(2)
        labels = np.array([0, 0])
        rankings = retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True)
        with pytest.raises(ProtocolError):
            recall_at_k(rankings, labels, ks=(0,))

    def test_label_count_mismatch(self):
        Z = np.eye(3)
        rankings = retrieve(RetrievalIndex(gallery=Z), Z)
        with pytest.raises(ShapeError):
            recall_at_k(rankings, np.array([0, 1]), ks=(1,))


class TestQueryGroundTruth:
    def test_overlap_raises(self):
        with pytest.raises(ProtocolError):
            gt(easy=[1, 2], hard=[2, 3])

    def test_duplicates_raise(self):
        with pytest.raises(ProtocolError):
            gt(easy=[1, 1])

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
        ranking = RankedList(
            indices=np.arange(6), scores=np.linspace(1.0, 0.5, 6)
        )
        record = gt(easy=[0], hard=[3], junk=[1])
        assert_allclose(
            average_precision(ranking, record, "medium"), 5.0 / 6.0, rtol=1e-15
        )
        assert average_precision(ranking, record, "hard") == 0.5
        assert average_precision(ranking, record, "easy") == 1.0

    def test_all_permutations_of_small_gallery(self):
        record = gt(easy=[0, 4], hard=[2], junk=[5])
        scores = np.linspace(1.0, 0.0, 6)
        for perm in itertools.permutations(range(6)):
            ranking = RankedList(indices=np.array(perm), scores=scores)
            for split in ("medium", "hard", "easy"):
                positives, junk = {
                    "medium": ([0, 4, 2], [5]),
                    "hard": ([2], [5, 0, 4]),
                    "easy": ([0, 4], [5, 2]),
                }[split]
                expected = ap_walk(perm, positives, junk)
                assert average_precision(ranking, record, split) == expected

    def test_junk_is_removed_not_penalized(self):
        # positive buried behind junk still scores a perfect AP
        ranking = RankedList(indices=np.array([3, 4, 0]), scores=np.array([3.0, 2.0, 1.0]))
        record = gt(easy=[0], junk=[3, 4])
        assert average_precision(ranking, record, "medium") == 1.0

    def test_no_positives_under_split_raises(self):
        ranking = RankedList(indices=np.arange(4), scores=-np.arange(4.0))
        with pytest.raises(ProtocolError):
            average_precision(ranking, gt(easy=[1]), "hard")

    def test_missing_positive_in_ranking_raises(self):
        ranking = RankedList(indices=np.array([0, 1]), scores=np.array([1.0, 0.5]))
        with pytest.raises(ProtocolError):
            average_precision(ranking, gt(easy=[3]), "medium")

    def test_unknown_split_raises(self):
        ranking = RankedList(indices=np.arange(2), scores=np.array([1.0, 0.5]))
        with pytest.raises(ProtocolError):
            average_precision(ranking, gt(easy=[0]), "extreme")


class TestMeanAveragePrecision:
    def test_skips_empty_queries_and_reports_them(self):
        scores = np.array([1.0, 0.5, 0.25])
        r = RankedList(indices=np.arange(3), scores=scores)
        records = [gt(easy=[0]), gt(junk=[1]), gt(hard=[2])]
        value, skipped = mean_average_precision([r, r, r], records, "easy")
        assert skipped == [1, 2]
        assert value == average_precision(r, records[0], "easy")

    def test_mean_is_fsum_over_scored(self):
        rng = np.random.default_rng(72)
        Z = unit_rows(rng, 10, 5)
        rankings = retrieve(RetrievalIndex(gallery=Z), unit_rows(rng, 4, 5))
        records = [
            gt(easy=[1, 2], hard=[3]),
            gt(hard=[0]),
            gt(easy=[5], junk=[6, 7]),
            gt(easy=[8], hard=[9, 2], junk=[0]),
        ]
        value, skipped = mean_average_precision(rankings, records, "medium")
        assert skipped == []
        expected = math.fsum(
            average_precision(r, g, "medium") for r, g in zip(rankings, records)
        ) / len(records)
        assert value == expected

    def test_all_skipped_raises(self):
        r = RankedList(indices=np.arange(2), scores=np.array([1.0, 0.5]))
        with pytest.raises(ProtocolError):
            mean_average_precision([r], [gt(junk=[0])], "medium")

    def test_length_mismatch_raises(self):
        r = RankedList(indices=np.arange(2), scores=np.array([1.0, 0.5]))
        with pytest.raises(ShapeError):
            mean_average_precision([r, r], [gt(easy=[0])], "medium")


# ---------------------------------------------------------------------------
# blocked scoring and rank counting vs full rankings
# ---------------------------------------------------------------------------


def outcome(fn, *args, **kwargs):
    """The call's result, or its exception type and message."""
    try:
        return fn(*args, **kwargs)
    except (ProtocolError, ShapeError) as exc:
        return type(exc), str(exc)


def random_ground_truths(rng, num_queries, gallery_size):
    records = []
    for _ in range(num_queries):
        roles = rng.choice(4, size=gallery_size, p=[0.2, 0.2, 0.2, 0.4])
        records.append(gt(easy=np.flatnonzero(roles == 0), hard=np.flatnonzero(roles == 1),
                          junk=np.flatnonzero(roles == 2)))
    return records


class TestScoreBlocks:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 10, 11])
    @pytest.mark.parametrize("block_rows", [2, 3, 4, 10])
    def test_blocks_cover_rows_in_order_and_never_hold_one_row(self, n, block_rows):
        rng = np.random.default_rng(90)
        Q = unit_rows(rng, n, 4)
        G = unit_rows(rng, 7, 4)
        blocks = list(score_blocks(Q, G, block_rows))
        starts = [start for start, _ in blocks]
        sizes = [S.shape[0] for _, S in blocks]
        assert starts == list(np.cumsum([0] + sizes[:-1]))
        assert sum(sizes) == n
        assert max(sizes) <= block_rows + 1  # a 1-row tail joins the last block
        if n > 1:
            assert min(sizes) >= 2
        for start, S in blocks:
            assert_array_equal(S, Q[start : start + S.shape[0]] @ G.T)

    def test_default_rows_follow_the_byte_budget(self):
        Q = np.eye(4)[[0, 1] * 300]
        G = np.eye(4)[[0, 1, 2, 3] * 100]
        rows = SCORE_BLOCK_BYTES // (8 * G.shape[0])
        sizes = [S.shape[0] for _, S in score_blocks(Q, G)]
        assert sizes[0] == min(rows, Q.shape[0])

    def test_one_row_blocks_are_rejected(self):
        with pytest.raises(ValueError):
            list(score_blocks(np.eye(3), np.eye(3), block_rows=1))


class TestBlockedRecall:
    def test_ties_straddling_k(self):
        # items 0-2 tie with the query; only item 2 shares its label
        e0, e1 = np.eye(3)[0], np.eye(3)[1]
        G = np.stack([e0, e0, e0, e1])
        index = RetrievalIndex(gallery=G)
        got = blocked_recall_at_k(index, e0[None, :], np.array([1]), (1, 2, 3, 4),
                                  gallery_labels=np.array([0, 0, 1, 1]))
        assert got == {1: 0.0, 2: 0.0, 3: 1.0, 4: 1.0}

    def test_self_is_excluded_even_when_tied(self):
        Z = np.eye(2)[[0, 0, 0, 1]]
        labels = np.array([0, 1, 0, 0])
        got = blocked_recall_at_k(RetrievalIndex(gallery=Z), Z, labels, (1, 2),
                                  exclude_self=True)
        ref = recall_at_k(retrieve(RetrievalIndex(gallery=Z), Z, exclude_self=True),
                          labels, (1, 2))
        assert got == ref == {1: 0.5, 2: 0.75}

    def test_errors_match_reference(self):
        Z = np.eye(3)
        index = RetrievalIndex(gallery=Z)
        with pytest.raises(ProtocolError, match="K=3 exceeds usable ranking depth 2"):
            blocked_recall_at_k(index, Z, np.array([0, 0, 1]), (3,), exclude_self=True)
        with pytest.raises(ProtocolError, match="no query"):
            blocked_recall_at_k(index, Z, np.array([0, 1, 2]), (1,), exclude_self=True)
        with pytest.raises(ProtocolError):
            blocked_recall_at_k(index, Z, np.array([0, 0, 1]), (0,))
        with pytest.raises(ShapeError):
            blocked_recall_at_k(index, Z[:, :2], np.array([0, 0, 1]), (1,))
        with pytest.raises(ShapeError):
            blocked_recall_at_k(index, Z[:2], np.array([0, 0]), (1,), exclude_self=True)
        with pytest.raises(ShapeError):
            blocked_recall_at_k(index, Z, np.array([0, 0]), (1,))
        with pytest.raises(ShapeError):
            blocked_recall_at_k(index, Z[:2], np.array([0, 0]), (1,),
                                gallery_labels=np.array([0, 0]))

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
        index = RetrievalIndex(gallery=G)
        expected = outcome(recall_at_k, retrieve(index, Q, exclude_self=exclude_self),
                           q_labels, ks, **kwargs)
        for block_rows in (2, 3, Q.shape[0] - 1, Q.shape[0], None):
            if block_rows is not None and block_rows < 2:
                continue
            got = outcome(blocked_recall_at_k, index, Q, q_labels, ks,
                          exclude_self=exclude_self, block_rows=block_rows, **kwargs)
            assert got == expected


class TestBlockedMeanAveragePrecision:
    def test_ties_among_positives_and_junk(self):
        # items 0-3 tie; junk 0 is dropped, so positive 1 ranks first and
        # positive 3 third (behind non-positive 2)
        e0, e1 = np.eye(2)
        G = np.stack([e0, e0, e0, e0, e1])
        index = RetrievalIndex(gallery=G)
        record = gt(easy=[1], hard=[3], junk=[0])
        got = blocked_mean_average_precision(index, e0[None, :], [record],
                                             ("easy", "medium", "hard"))
        assert got["medium"] == ((1.0 + 2.0 / 3.0) / 2.0, [])
        assert got["easy"] == (1.0, [])  # hard 3 is junk under easy
        assert got["hard"] == (0.5, [])  # easy 1 is junk under hard
        ranking = retrieve(index, e0[None, :])
        for split, value in got.items():
            assert value == mean_average_precision(ranking, [record], split)

    def test_errors_match_reference(self):
        index = RetrievalIndex(gallery=np.eye(3))
        Q = np.eye(3)[:2]
        with pytest.raises(ProtocolError, match="every query is empty under the 'hard'"):
            blocked_mean_average_precision(index, Q, [gt(easy=[0]), gt(easy=[1])],
                                           ("medium", "hard"))
        with pytest.raises(ProtocolError, match="unknown difficulty split"):
            blocked_mean_average_precision(index, Q, [gt(easy=[0]), gt(easy=[1])],
                                           ("extreme",))
        with pytest.raises(ProtocolError):
            blocked_mean_average_precision(index, Q, [gt(easy=[0]), gt(easy=[3])],
                                           ("medium",))
        with pytest.raises(ShapeError):
            blocked_mean_average_precision(index, Q, [gt(easy=[0])], ("medium",))

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
        index = RetrievalIndex(gallery=G)
        rankings = retrieve(index, Q)
        splits = ("easy", "medium", "hard")
        expected = {s: outcome(mean_average_precision, rankings, records, s) for s in splits}
        for block_rows in (2, 3, num_queries - 1, num_queries, None):
            if block_rows is not None and block_rows < 2:
                continue
            for split in splits:
                got = outcome(blocked_mean_average_precision, index, Q, records,
                              (split,), block_rows=block_rows)
                if isinstance(got, dict):
                    got = got[split]
                assert got == expected[split]
            if all(not isinstance(v[0], type) for v in expected.values()):
                assert blocked_mean_average_precision(
                    index, Q, records, splits, block_rows=block_rows
                ) == expected
