"""Embedding diagnostics: energy curves, similarity histograms, dispersion.

The dispersion checks lean on closed forms. Two antipodal unit gradients
have sample covariance 2uu^T, so the nuclear norm is exactly 2. Duplicating
an n-row set rescales the unbiased covariance by 2(n-1)/(2n-1). And because
a covariance matrix is positive semidefinite, its nuclear norm equals its
trace, which for unit rows is n(1 - |mean|^2)/(n-1).
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spherekit import (
    NumericalError,
    SimilarityHistogram,
    histogram_overlap,
    pca_energy_report,
    similarity_histograms,
    step_gradient_dispersion,
)
from spherekit import _screen, diagnostics, evaluation
from spherekit.errors import ShapeError

from conftest import (
    budget_for_rows,
    histogram_routes,
    quantized_unit_rows,
    relabelled,
    rows_at_similarity,
    unit_rows,
)


def hist(pos_counts, neg_counts):
    edges = np.linspace(-1.0, 1.0, len(pos_counts) + 1)
    return SimilarityHistogram(
        bin_edges=edges,
        positive_counts=np.asarray(pos_counts, dtype=np.int64),
        negative_counts=np.asarray(neg_counts, dtype=np.int64),
    )


class TestEnergyReport:
    def test_matches_manual_cumsum(self):
        rng = np.random.default_rng(80)
        Z = rng.standard_normal((30, 6)) * np.array([3.0, 2.0, 1.5, 1.0, 0.5, 0.1])
        report = pca_energy_report(Z, thresholds=(50, 90, 95))
        # independent spectrum via SVD of the centered matrix
        centered = Z - Z.mean(axis=0)
        s = np.linalg.svd(centered, compute_uv=False)
        evals = (s**2) / (Z.shape[0] - 1)
        cum = np.cumsum(evals) / np.sum(evals)
        assert_allclose(report.cumulative, cum, rtol=1e-10, atol=1e-12)
        for t in (50, 90, 95):
            expected = next(
                k for k in range(1, len(cum) + 1) if cum[k - 1] >= t / 100.0
            )
            assert report.components_for[t] == expected

    def test_planar_data_needs_two_components(self):
        rng = np.random.default_rng(81)
        basis = np.linalg.qr(rng.standard_normal((5, 2)))[0]
        coords = rng.standard_normal((40, 2)) * np.array([1.0, 0.9])
        Z = coords @ basis.T
        report = pca_energy_report(Z, thresholds=(95,))
        assert report.components_for[95] == 2
        assert_allclose(report.cumulative[1], 1.0, rtol=0, atol=1e-12)

    def test_rank_cap_is_rows_minus_one(self):
        rng = np.random.default_rng(82)
        Z = rng.standard_normal((4, 10))
        report = pca_energy_report(Z, thresholds=(95,))
        assert len(report.cumulative) == 3


class TestSimilarityHistograms:
    def test_counts_match_pair_loop(self):
        rng = np.random.default_rng(83)
        Z = unit_rows(rng, 14, 5)
        labels = rng.integers(0, 3, size=14)
        num_bins = 8
        got = similarity_histograms(Z, labels, num_bins=num_bins)
        edges = np.linspace(-1.0, 1.0, num_bins + 1)
        pos = np.zeros(num_bins, dtype=np.int64)
        neg = np.zeros(num_bins, dtype=np.int64)
        n = len(Z)
        for i in range(n):
            for j in range(i + 1, n):
                s = min(1.0, max(-1.0, float(Z[i] @ Z[j])))
                b = int(np.searchsorted(edges, s, side="right")) - 1
                b = min(b, num_bins - 1)
                if labels[i] == labels[j]:
                    pos[b] += 1
                else:
                    neg[b] += 1
        assert_array_equal(got.positive_counts, pos)
        assert_array_equal(got.negative_counts, neg)
        assert got.positive_counts.sum() + got.negative_counts.sum() == n * (n - 1) // 2

    def test_edges_span_minus_one_to_one(self):
        rng = np.random.default_rng(84)
        Z = unit_rows(rng, 5, 4)
        got = similarity_histograms(Z, np.zeros(5, dtype=np.int64), num_bins=6)
        assert got.bin_edges[0] == -1.0
        assert got.bin_edges[-1] == 1.0
        assert len(got.bin_edges) == 7

    def test_exact_plus_minus_one_pairs_are_binned(self):
        Z = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        got = similarity_histograms(Z, np.array([0, 0, 1]), num_bins=4)
        assert got.positive_counts[-1] == 1  # similarity +1 lands in last bin
        assert got.negative_counts[0] == 2  # similarity -1 lands in first bin

    @pytest.mark.parametrize("rows", [2, 3, 5, 12, 13, None])
    def test_blocks_give_the_dense_counts(self, rows):
        # quantized rows put many similarities exactly on bin edges (multiples
        # of 1/4) and at +/-1; 14 rows make blocks of 13 leave a 1-row tail
        rng = np.random.default_rng(86)
        Z = quantized_unit_rows(rng, 14, 8, pool_size=6)
        labels = rng.integers(0, 3, size=14)
        with budget_for_rows(evaluation, "SCORE_BLOCK_BYTES", rows, 14):
            got = similarity_histograms(Z, labels, num_bins=8)
        iu = np.triu_indices(14, k=1)
        pair_sims = np.clip((Z @ Z.T)[iu], -1.0, 1.0)
        same = labels[iu[0]] == labels[iu[1]]
        edges = np.linspace(-1.0, 1.0, 9)
        assert_array_equal(got.positive_counts, np.histogram(pair_sims[same], edges)[0])
        assert_array_equal(got.negative_counts, np.histogram(pair_sims[~same], edges)[0])

    def test_validation(self):
        rng = np.random.default_rng(85)
        Z = unit_rows(rng, 4, 3)
        with pytest.raises(ShapeError):
            similarity_histograms(Z[:1], np.zeros(1, dtype=np.int64))
        with pytest.raises(ShapeError):
            similarity_histograms(Z, np.zeros(3, dtype=np.int64))
        with pytest.raises(ShapeError):
            similarity_histograms(Z, np.zeros(4, dtype=np.int64), num_bins=1)

    @pytest.mark.parametrize("labels", [
        [np.nan, np.nan, 0, 0, 1, 1],  # nan != nan: no same-label pair
        [0.0, 0.0, 1.0, 1.0, 2.0, 2.0],
        ["a", "a", "b", "b", "c", "c"],
        [True, True, False, False, True, False],
    ])
    def test_non_integer_labels_raise_before_any_tile(self, monkeypatch, labels):
        Z = unit_rows(np.random.default_rng(86), 6, 3)
        routes = histogram_routes(monkeypatch)
        with pytest.raises(ShapeError, match="labels must be integers"):
            similarity_histograms(Z, np.array(labels))
        assert routes.tiles == {"float32": {}, "float64": {}}

    @pytest.mark.parametrize("kind", ["negative", "2**62", "uint64", "sparse"])
    @pytest.mark.parametrize("distinct", [6, 256])
    def test_labels_bin_as_their_dense_relabelling(self, kind, distinct):
        # Labels are compared as dense codes; 256 distinct labels take
        # uint16 codes, 6 take uint8. The counts are those of labels 0, 1, ...
        # equal where the given ones are.
        rng = np.random.default_rng(87)
        Z = unit_rows(rng, 700, 16)
        dense = rng.permutation(np.arange(700) % distinct)
        labels = relabelled(rng, dense, kind)
        codes = _screen._label_codes(labels)[0]
        assert codes.dtype == (np.uint8 if distinct < 256 else np.uint16)
        got = similarity_histograms(Z, labels)
        expected = similarity_histograms(Z, dense)
        assert_array_equal(got.positive_counts, expected.positive_counts)
        assert_array_equal(got.negative_counts, expected.negative_counts)
        assert_dense_counts(got, Z, labels, 50, row_dots=True)

    @pytest.mark.parametrize("num_bins", [2.5, 8.0, True, "8"])
    def test_num_bins_that_is_not_an_integer_raises(self, num_bins):
        Z = unit_rows(np.random.default_rng(85), 4, 3)
        with pytest.raises(ShapeError, match="num_bins must be an integer"):
            similarity_histograms(Z, np.zeros(4, dtype=np.int64), num_bins=num_bins)

    def test_numpy_integer_num_bins_is_accepted(self):
        Z = unit_rows(np.random.default_rng(85), 4, 3)
        labels = np.zeros(4, dtype=np.int64)
        got = similarity_histograms(Z, labels, num_bins=np.int64(8))
        expected = similarity_histograms(Z, labels, num_bins=8)
        assert_array_equal(got.positive_counts, expected.positive_counts)
        assert_array_equal(got.negative_counts, expected.negative_counts)


def assert_dense_counts(got, Z, labels, num_bins, row_dots=False):
    """``got`` equals np.histogram of the upper triangle of the full float64
    product, or with ``row_dots`` of every pair's row dot, split by label
    match."""
    iu = np.triu_indices(len(Z), k=1)
    scores = _screen._row_dots(Z, iu[0], Z, iu[1], 2**16) if row_dots else (Z @ Z.T)[iu]
    same = labels[iu[0]] == labels[iu[1]]
    edges = np.linspace(-1.0, 1.0, num_bins + 1)
    edges[0], edges[-1] = -np.inf, np.inf
    assert_array_equal(got.positive_counts, np.histogram(scores[same], edges)[0])
    assert_array_equal(got.negative_counts, np.histogram(scores[~same], edges)[0])


def rows_near_edges(rng, Z, rows, edges):
    """Replace ``Z[rows]`` by rows that each score within 1e-9 of a random
    interior edge with a random earlier row; returns those earlier rows."""
    anchors = np.array([rng.integers(0, row) for row in rows], dtype=np.int64)
    targets = edges[rng.integers(1, edges.size - 1, size=rows.size)]
    targets += rng.uniform(-1e-9, 1e-9, size=rows.size)
    Z[rows] = rows_at_similarity(rng, Z[anchors], targets)
    return anchors


def signed_axes(rng, n, d):
    """n rows of +-1 on one random axis each: pairs score exactly 0 or +-1."""
    return np.eye(d)[rng.integers(0, d, size=n)] * rng.choice([-1.0, 1.0], size=(n, 1))


class TestHistogramScreen:
    """Histograms binned from float32 blocks equal the dense float64 ones."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(2, 60),
        d=st.sampled_from([2, 16, 128]),
        num_bins=st.sampled_from([2, 7, 8, 50]),
        near_edges=st.floats(0.0, 1.0),
        on_axes=st.floats(0.0, 1.0),
        norm=st.sampled_from([1.0, 3.0]),
        rows=st.sampled_from([2, 3, 7, None]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_float64(self, n, d, num_bins, near_edges, on_axes, norm, rows,
                                   seed):
        # Random rows, some within 1e-9 of an edge with an earlier row (the
        # screen cannot decide them), some on signed axes (scores exactly on
        # the edge 0 of an even bin count); at norm 3 no row is on the sphere.
        rng = np.random.default_rng(seed)
        Z = unit_rows(rng, n, d)
        labels = rng.integers(0, 4, size=n)
        near = 1 + np.flatnonzero(rng.random(n - 1) < near_edges)
        rows_near_edges(rng, Z, near, np.linspace(-1.0, 1.0, num_bins + 1))
        axes = rng.random(n) < on_axes
        Z[axes] = signed_axes(rng, int(axes.sum()), d)
        Z *= norm
        with budget_for_rows(evaluation, "SCORE_BLOCK_BYTES", rows, n):
            got = similarity_histograms(Z, labels, num_bins=num_bins)
        assert_dense_counts(got, Z, labels, num_bins)

    @pytest.mark.parametrize("num_bins", [50, 7])
    @pytest.mark.parametrize("rows", [64, None])
    def test_random_rows_are_screened(self, monkeypatch, num_bins, rows):
        rng = np.random.default_rng(92)
        Z = unit_rows(rng, 300, 128)
        labels = rng.integers(0, 10, size=300)
        routes = histogram_routes(monkeypatch)
        with budget_for_rows(evaluation, "SCORE_BLOCK_BYTES", rows, 300):
            got = similarity_histograms(Z, labels, num_bins=num_bins)
        assert_dense_counts(got, Z, labels, num_bins)
        assert routes["screened"] == (1 if rows is None else 5)
        assert routes["fallback"] == routes["float64"] == 0

    @pytest.mark.parametrize("num_bins", [50, 7])
    def test_pairs_near_an_edge_are_rescored(self, monkeypatch, num_bins):
        # 40 rows score within 1e-9 of an interior edge with an earlier row
        # of their label, far inside the screen's slack (about 1.6e-5 at d
        # 128), so each such pair is scored in one row dot, and counted in
        # both the all-pair and the same-label counts.
        rng = np.random.default_rng(93)
        Z = unit_rows(rng, 400, 128)
        labels = rng.integers(0, 10, size=400)
        near = np.arange(360, 400)
        anchors = rows_near_edges(rng, Z, near, np.linspace(-1.0, 1.0, num_bins + 1))
        labels[near] = labels[anchors]
        routes = histogram_routes(monkeypatch)
        got = similarity_histograms(Z, labels, num_bins=num_bins)
        assert_dense_counts(got, Z, labels, num_bins)
        assert routes["screened"] == 1 and routes["fallback"] == routes["float64"] == 0
        dotted = np.concatenate([rows * 400 + cols for rows, cols in routes.dotted[0]])
        assert routes["rescored"] == dotted.size
        assert_array_equal(np.unique(dotted, return_counts=True)[1], 1)
        kept = anchors < near[0]  # a replaced anchor no longer scores near the edge
        assert np.isin((anchors * 400 + near)[kept], dotted).all()

    @pytest.mark.parametrize("kind", ["orthogonal", "quantized"])
    def test_blocks_of_scores_on_edges_fall_back(self, monkeypatch, kind):
        # Most pairs of the first 100 rows score exactly on an interior edge:
        # signed axes score 0 (an edge of 50 bins), quantized rows multiples
        # of 1/16 (8 bins have edges at multiples of 1/4). Their block falls
        # back to its float64 product; the blocks of the 200 random rows
        # after them are screened.
        rng = np.random.default_rng(94)
        if kind == "orthogonal":
            first, num_bins = signed_axes(rng, 100, 16), 50
        else:
            first, num_bins = quantized_unit_rows(rng, 100, 16, pool_size=6), 8
        Z = np.concatenate([first, unit_rows(rng, 200, 16)])
        labels = rng.integers(0, 10, size=300)
        routes = histogram_routes(monkeypatch)
        with budget_for_rows(evaluation, "SCORE_BLOCK_BYTES", 100, 300):
            got = similarity_histograms(Z, labels, num_bins=num_bins)
        assert_dense_counts(got, Z, labels, num_bins)
        assert routes == {"screened": 2, "fallback": 1, "float64": 1,
                          "rescored": routes["rescored"]}

    def test_rows_the_screen_cannot_bound_take_float64_blocks(self, monkeypatch):
        rng = np.random.default_rng(95)
        Z = 3.0 * unit_rows(rng, 120, 16)
        labels = rng.integers(0, 5, size=120)
        routes = histogram_routes(monkeypatch)
        got = similarity_histograms(Z, labels, num_bins=50)
        assert_dense_counts(got, Z, labels, 50)
        assert routes == {"screened": 0, "fallback": 0, "float64": 1, "rescored": 0}
        assert got.positive_counts.sum() + got.negative_counts.sum() == 120 * 119 // 2

    @pytest.mark.parametrize("kind", ["quantized", "axes", "near-edges", "norm-3"])
    def test_both_routes_bin_the_same_counts(self, monkeypatch, kind):
        # With a per-pair share of 1 no span falls back, and with 0 every
        # span with an undecided pair does, so the same pairs are binned from
        # float32 tiles and from float64 tiles; norm-3 rows have no float32
        # screen and take float64 tiles either way. Both routes give every
        # pair the bin of its row dot.
        rng = np.random.default_rng(97)
        num_bins = 8 if kind == "quantized" else 50
        if kind == "quantized":
            Z = quantized_unit_rows(rng, 300, 16, pool_size=6)
        elif kind == "axes":
            Z = signed_axes(rng, 300, 16)
        else:
            Z = unit_rows(rng, 300, 16)
        if kind == "near-edges":
            rows_near_edges(rng, Z, np.arange(151, 300, 2), np.linspace(-1.0, 1.0, 51))
        elif kind == "norm-3":
            Z *= 3.0
        labels = rng.integers(0, 10, size=300)
        spans = {1.0: {"screened": 3, "fallback": 0, "float64": 0},
                 0.0: {"screened": 0, "fallback": 3, "float64": 3}}
        for share, expected in spans.items():
            if kind == "norm-3":
                expected = {"screened": 0, "fallback": 0, "float64": 3}
            routes = histogram_routes(monkeypatch)
            with mock.patch.object(_screen, "_PER_PAIR_SHARE", share), \
                    budget_for_rows(evaluation, "SCORE_BLOCK_BYTES", 100, 300):
                got = similarity_histograms(Z, labels, num_bins=num_bins)
            assert routes == {**expected, "rescored": routes["rescored"]}
            assert_dense_counts(got, Z, labels, num_bins, row_dots=True)

    def test_rows_no_float64_band_can_screen_are_all_row_dotted(self, monkeypatch):
        # Rows of norm 2**30 and 2**-30: their pairs score all over [-1, 1]
        # and far past it, and the float64 bands, about 2**16 wide, decide
        # none of them. Every pair is binned by its row dot, once, and none
        # of the diagonal square's entries.
        rng = np.random.default_rng(98)
        Z = unit_rows(rng, 120, 16) * np.where(np.arange(120) % 2, 2.0**30, 2.0**-30)[:, None]
        labels = rng.integers(0, 5, size=120)
        routes = histogram_routes(monkeypatch)
        got = similarity_histograms(Z, labels, num_bins=50)
        assert routes == {"screened": 0, "fallback": 0, "float64": 1,
                          "rescored": 120 * 119 // 2}
        assert_dense_counts(got, Z, labels, 50, row_dots=True)
        assert 0 < got.positive_counts[1:-1].sum() + got.negative_counts[1:-1].sum()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_row_is_refused_before_any_tile(self, monkeypatch, value):
        # np.histogram drops NaN scores, so a NaN row's pairs would land in
        # no bin: 119 * 118 / 2 of the 120 * 119 / 2 pairs counted.
        rng = np.random.default_rng(95)
        Z = unit_rows(rng, 120, 16)
        Z[7, 3] = value
        routes = histogram_routes(monkeypatch)
        with pytest.raises(NumericalError, match="row 7 contains non-finite values"):
            similarity_histograms(Z, rng.integers(0, 5, size=120), num_bins=50)
        assert routes == {"screened": 0, "fallback": 0, "float64": 0, "rescored": 0}
        assert not routes.tiles["float32"] and not routes.tiles["float64"]

    def test_a_row_whose_pair_scores_could_overflow_is_refused(self, monkeypatch):
        # Rows scaled by 1e200, every seventh one set to 1e-200 in each entry:
        # finite rows, but a pair of large ones scores past float64's range,
        # and a row dot summing +inf and -inf terms is NaN, in no bin.
        rng = np.random.default_rng(99)
        Z = unit_rows(rng, 300, 16) * 1e200
        Z[::7] = 1e-200
        routes = histogram_routes(monkeypatch)
        with pytest.raises(NumericalError, match="^row 1 has a norm above 2\\*\\*511"):
            similarity_histograms(Z, rng.integers(0, 5, size=300), num_bins=50)
        assert routes == {"screened": 0, "fallback": 0, "float64": 0, "rescored": 0}
        assert not routes.tiles["float32"] and not routes.tiles["float64"]

    def test_rows_of_norm_up_to_two_to_the_511_are_scored(self):
        # At the largest norm taken, every score is finite and lands in a
        # bin: the end bins, since the pairs score far past [-1, 1].
        rng = np.random.default_rng(100)
        Z = unit_rows(rng, 40, 16) * 2.0**511 * (1 - 2.0**-40)
        got = similarity_histograms(Z, np.arange(40) % 3, num_bins=8)
        assert got.positive_counts.sum() + got.negative_counts.sum() == 40 * 39 // 2
        with pytest.raises(NumericalError, match="row 0 has a norm above"):
            similarity_histograms(Z * 2**3, np.arange(40) % 3, num_bins=8)

    def test_a_small_budget_bins_each_tile_once(self, monkeypatch):
        # At 1 MiB a float32 tile holds 90 x 182 scores; each goes to the
        # edge screen in one chunk (at most 2**16 scores at any budget), not
        # in chunks of the budget's 1/512. The counts do not depend on it.
        rng = np.random.default_rng(96)
        Z = unit_rows(rng, 2000, 16)
        labels = rng.integers(0, 50, size=2000)
        default = similarity_histograms(Z, labels)
        sizes, binned = [], diagnostics._EdgeScreen.binned

        def spied(screen, values):
            sizes.append(values.size)
            return binned(screen, values)
        monkeypatch.setattr(diagnostics._EdgeScreen, "binned", spied)
        with mock.patch.object(evaluation, "SCORE_BLOCK_BYTES", 2**20):
            small = similarity_histograms(Z, labels)
        assert max(sizes) == 90 * 182
        assert_array_equal(small.positive_counts, default.positive_counts)
        assert_array_equal(small.negative_counts, default.negative_counts)


class TestEdgeScreenBinned:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_bins", [8, 50, 200])
    def test_bins_are_the_cut_bins_of_the_decided_scores(self, dtype, num_bins):
        # Scores over [-1.1, 1.1], a third of them within two band widths of
        # an interior edge, the edges themselves and scores far below the
        # first edge. A decided score's bin is the number of ``above``
        # bounds it reaches; a score strictly inside a band is undecided,
        # and its bin is the bin count.
        rng = np.random.default_rng(num_bins)
        edges = np.linspace(-1.0, 1.0, num_bins + 1)
        screen = diagnostics._EdgeScreen.around(1.0, 16, edges, dtype)
        width = screen.above.astype(np.float64) - screen.below
        k = rng.integers(0, num_bins - 1, size=20_000)
        near = edges[1:-1][k] + rng.uniform(-2, 2, size=k.size) * width[k]
        values = np.concatenate([rng.uniform(-1.1, 1.1, size=40_000), near,
                                 edges[1:-1], np.full(10, -2.0)]).astype(dtype)
        at, undecided = screen.binned(values)
        inside = ((values[:, None] > screen.below) & (values[:, None] < screen.above)).any(axis=1)
        bins = np.searchsorted(screen.above, values, "right")
        assert 0 < inside.sum() < values.size
        assert_array_equal(undecided, np.flatnonzero(inside))
        assert_array_equal(at, np.where(inside, num_bins, bins))

    def test_bands_too_wide_leave_every_score_undecided(self):
        # Rows of norm 2**30 at d 16: the float64 bands are far wider than a
        # bin, so no score is decided.
        edges = np.linspace(-1.0, 1.0, 51)
        screen = diagnostics._EdgeScreen.around(2.0**30, 16, edges, np.float64)
        values = np.linspace(-1.0, 1.0, 101)
        at, undecided = screen.binned(values)
        assert_array_equal(at, np.full(101, 50))
        assert_array_equal(undecided, np.arange(101))


class TestHistogramOverlap:
    def test_identical_distributions(self):
        h = hist([1, 2, 3, 4], [2, 4, 6, 8])  # same shape, double mass
        assert histogram_overlap(h) == 1.0

    def test_disjoint_distributions(self):
        h = hist([5, 5, 0, 0], [0, 0, 7, 7])
        assert histogram_overlap(h) == 0.0

    def test_half_overlap(self):
        h = hist([2, 2, 0, 0], [0, 2, 2, 0])
        assert_allclose(histogram_overlap(h), 0.5, rtol=0, atol=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(86)
        pos = rng.integers(0, 20, size=10)
        neg = rng.integers(0, 20, size=10)
        pos[0] += 1  # guarantee nonzero mass
        neg[0] += 1
        a = histogram_overlap(hist(pos, neg))
        b = histogram_overlap(hist(pos * 3, neg * 7))
        assert_allclose(b, a, rtol=1e-15, atol=0)

    def test_zero_mass_side_raises(self):
        with pytest.raises(NumericalError):
            histogram_overlap(hist([0, 0], [1, 1]))


class TestStepGradientDispersion:
    def test_antipodal_pair_is_two(self):
        rng = np.random.default_rng(87)
        g = rng.standard_normal(6) * 3.7
        got = step_gradient_dispersion(np.stack([g, -g]))
        assert_allclose(got, 2.0, rtol=1e-12, atol=0)

    def test_duplication_rescales_unbiased_covariance(self):
        rng = np.random.default_rng(88)
        n = 7
        G = rng.standard_normal((n, 5))
        single = step_gradient_dispersion(G)
        doubled = step_gradient_dispersion(np.vstack([G, G]))
        assert_allclose(
            doubled / single, 2.0 * (n - 1) / (2 * n - 1), rtol=1e-10, atol=0
        )

    def test_equals_trace_identity_for_unit_rows(self):
        rng = np.random.default_rng(89)
        n = 9
        G = unit_rows(rng, n, 4) * rng.uniform(0.5, 2.0, size=(n, 1))
        got = step_gradient_dispersion(G)
        U = G / np.linalg.norm(G, axis=1, keepdims=True)
        mean = U.mean(axis=0)
        expected = n * (1.0 - float(mean @ mean)) / (n - 1)
        assert_allclose(got, expected, rtol=1e-10, atol=0)

    def test_matches_svd_of_covariance(self):
        rng = np.random.default_rng(90)
        G = rng.standard_normal((12, 6)) * rng.uniform(0.1, 5.0, size=(12, 1))
        got = step_gradient_dispersion(G)
        U = G / np.linalg.norm(G, axis=1, keepdims=True)
        C = np.cov(U, rowvar=False, ddof=1)
        expected = float(np.sum(np.linalg.svd(C, compute_uv=False)))
        assert_allclose(got, expected, rtol=1e-10, atol=0)

    def test_zero_rows_are_dropped(self):
        rng = np.random.default_rng(91)
        G = rng.standard_normal((6, 4))
        padded = np.vstack([G, np.zeros((3, 4))])
        assert step_gradient_dispersion(padded) == step_gradient_dispersion(G)

    def test_fewer_than_two_usable_rows_is_none(self):
        assert step_gradient_dispersion(np.zeros((4, 3))) is None
        one_row = np.vstack([np.ones((1, 3)), np.zeros((3, 3))])
        assert step_gradient_dispersion(one_row) is None
