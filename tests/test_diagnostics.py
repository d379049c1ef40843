"""Embedding diagnostics: energy curves, similarity histograms, dispersion.

The dispersion checks lean on closed forms. Two antipodal unit gradients
have sample covariance 2uu^T, so the nuclear norm is exactly 2. Duplicating
an n-row set rescales the unbiased covariance by 2(n-1)/(2n-1). And because
a covariance matrix is positive semidefinite, its nuclear norm equals its
trace, which for unit rows is n(1 - |mean|^2)/(n-1).
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spherekit import (
    NumericalError,
    SimilarityHistogram,
    histogram_overlap,
    pca_energy_report,
    similarity_histograms,
    step_gradient_dispersion,
)
from spherekit.errors import ShapeError

from conftest import unit_rows


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

    def test_validation(self):
        rng = np.random.default_rng(85)
        Z = unit_rows(rng, 4, 3)
        with pytest.raises(ShapeError):
            similarity_histograms(Z[:1], np.zeros(1, dtype=np.int64))
        with pytest.raises(ShapeError):
            similarity_histograms(Z, np.zeros(3, dtype=np.int64))
        with pytest.raises(ShapeError):
            similarity_histograms(Z, np.zeros(4, dtype=np.int64), num_bins=1)


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
