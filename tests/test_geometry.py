"""Pooling, normalization, PCA, and energy-curve behavior.

The PCA oracle here goes through numpy's SVD of the centered data matrix,
which is an independent route from the covariance eigendecomposition used by
the library. GeM reference values for p=100 were computed from exact integer
power sums with a 60-digit decimal root and are frozen below.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spherekit import (
    NormalizationError,
    NumericalError,
    PoolingError,
    TokenGrid,
    cumulative_energy,
    gem_pool_backward,
    normalize_rows,
    pca_fit,
    pca_transform_rows,
    pool,
)
from spherekit.errors import ShapeError

from conftest import central_diff, rel_err

# (mean((1^100 + 3^100)/2))^(1/100) and same for the (2, 4) column,
# from exact integer sums and a high-precision 100th root.
GEM_P100_COL0 = 2.9792774863111077
GEM_P100_COL1 = 3.9723699817481436


def grid(tokens, cls=None):
    tokens = np.asarray(tokens, dtype=np.float64)
    if cls is None:
        cls = np.zeros(tokens.shape[1], dtype=np.float64)
    return TokenGrid(cls_token=np.asarray(cls, dtype=np.float64), tokens=tokens)


class TestL2Normalize:
    """Row-wise L2 normalization through ``normalize_rows``."""

    def test_three_four_five(self):
        out = normalize_rows(np.array([[3.0, 4.0]]))
        assert_allclose(out, [[0.6, 0.8]], rtol=0, atol=1e-15)

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((20, 7)) * rng.uniform(0.1, 50.0, size=(20, 1))
        once = normalize_rows(X)
        twice = normalize_rows(once)
        assert_allclose(twice, once, rtol=0, atol=1e-12)
        assert_allclose(np.linalg.norm(once, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_zero_vector_raises(self):
        with pytest.raises(NormalizationError):
            normalize_rows(np.zeros((1, 4)))

    def test_rows_match_single(self):
        # each row is normalized on its own: one-row calls give the same bits
        rng = np.random.default_rng(12)
        X = rng.standard_normal((6, 5))
        rows = normalize_rows(X)
        for i in range(6):
            assert_array_equal(rows[i], normalize_rows(X[i : i + 1])[0])

    def test_rows_zero_row_raises(self):
        X = np.ones((3, 4))
        X[1] = 0.0
        with pytest.raises(NormalizationError, match="1"):
            normalize_rows(X)


class TestPool:
    def test_cls_returns_copy(self):
        g = grid([[1.0, 2.0], [3.0, 4.0]], cls=[5.0, 6.0])
        out = pool(g, "cls")
        assert_array_equal(out, [5.0, 6.0])
        out[0] = -1.0
        assert g.cls_token[0] == 5.0

    def test_avg_example(self):
        out = pool(grid([[1.0, 2.0], [3.0, 4.0]]), "avg")
        assert_array_equal(out, [2.0, 3.0])

    def test_max(self):
        out = pool(grid([[1.0, 5.0], [3.0, 4.0]]), "max")
        assert_array_equal(out, [3.0, 5.0])

    def test_gem_p1_equals_avg_bitwise(self):
        rng = np.random.default_rng(13)
        toks = rng.uniform(0.1, 4.0, size=(9, 6))
        g = grid(toks)
        assert_array_equal(pool(g, "gem", p=1.0), pool(g, "avg"))

    def test_gem_p100_frozen_value(self):
        out = pool(grid([[1.0, 2.0], [3.0, 4.0]]), "gem", p=100.0)
        assert_allclose(out, [GEM_P100_COL0, GEM_P100_COL1], rtol=1e-12, atol=0)
        # large p approximates max pooling to about one percent here
        assert_allclose(out, [3.0, 4.0], rtol=1e-2, atol=0)

    def test_gem_approaches_max_monotonically(self):
        rng = np.random.default_rng(14)
        toks = rng.uniform(0.5, 3.0, size=(8, 5))
        g = grid(toks)
        target = pool(g, "max")
        gaps = [
            np.max(np.abs(pool(g, "gem", p=p) - target))
            for p in (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
        ]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= a
        assert gaps[-1] < gaps[0]

    def test_gem_clamps_nonpositive_tokens(self):
        out = pool(grid([[0.0, -2.0], [0.0, -1.0]]), "gem", p=3.0)
        assert_allclose(out, [1e-6, 1e-6], rtol=1e-12)

    def test_gem_rejects_p_below_one(self):
        g = grid([[1.0, 2.0]])
        with pytest.raises(ValueError):
            pool(g, "gem", p=0.5)

    def test_empty_tokens(self):
        g = grid(np.zeros((0, 3)), cls=[1.0, 2.0, 3.0])
        assert_array_equal(pool(g, "cls"), [1.0, 2.0, 3.0])
        for mode in ("avg", "max", "gem"):
            with pytest.raises(PoolingError):
                pool(g, mode)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            pool(grid([[1.0, 2.0]]), "sum")


class TestGemBackward:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        for p in (1.5, 3.0, 7.0):
            toks = rng.uniform(0.5, 2.0, size=(5, 4))
            g_out = rng.standard_normal(4)

            def scalar(T, p=p):
                return float(g_out @ pool(grid(T), "gem", p=p))

            analytic = gem_pool_backward(toks, p, g_out)
            numeric = central_diff(scalar, toks)
            assert rel_err(numeric, analytic) < 1e-6

    def test_zero_gradient_at_clamp(self):
        toks = np.array([[2.0, 0.0], [1.0, -3.0]])
        grads = gem_pool_backward(toks, 3.0, np.ones(2))
        assert grads[0, 1] == 0.0
        assert grads[1, 1] == 0.0
        assert grads[0, 0] != 0.0


def svd_pca_oracle(X, out_dim):
    """Independent PCA route: SVD of the centered data matrix."""
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    _, s, Vt = np.linalg.svd(X - mean, full_matrices=False)
    comps = Vt[:out_dim].copy()
    for i in range(out_dim):
        j = np.argmax(np.abs(comps[i]))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    evals = (s[:out_dim] ** 2) / (X.shape[0] - 1)
    return mean, comps, evals


class TestPca:
    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(18)
        X = rng.standard_normal((40, 7)) * rng.uniform(0.5, 3.0, size=7)
        model = pca_fit(X, out_dim=5)
        mean, comps, evals = svd_pca_oracle(X, 5)
        assert_allclose(model.mean, mean, rtol=0, atol=1e-12)
        assert_allclose(model.components, comps, rtol=0, atol=1e-8)
        assert_allclose(model.eigenvalues, evals, rtol=1e-10, atol=1e-12)

    def test_component_rows_orthonormal(self):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((30, 6))
        model = pca_fit(X, out_dim=4)
        gram = model.components @ model.components.T
        assert_allclose(gram, np.eye(4), rtol=0, atol=1e-10)

    def test_eigenvalues_sorted_nonnegative(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((25, 5))
        model = pca_fit(X, out_dim=5)
        assert np.all(model.eigenvalues >= 0)
        assert np.all(np.diff(model.eigenvalues) <= 0)

    def test_sign_rule(self):
        rng = np.random.default_rng(21)
        X = rng.standard_normal((20, 6))
        model = pca_fit(X, out_dim=6)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0

    def test_full_rank_round_trip(self):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((30, 5))
        model = pca_fit(X, out_dim=5)
        Y = pca_transform_rows(model, X[:10])
        back = Y @ model.components
        expected = normalize_rows(X[:10] - model.mean)
        assert_allclose(back, expected, rtol=0, atol=1e-8)

    def test_transform_is_unit(self):
        rng = np.random.default_rng(23)
        X = rng.standard_normal((20, 6))
        model = pca_fit(X, out_dim=3)
        Y = pca_transform_rows(model, X)
        assert_allclose(np.linalg.norm(Y, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_transform_rows_matches_single(self):
        # rows are transformed independently of each other
        rng = np.random.default_rng(24)
        X = rng.standard_normal((15, 6))
        model = pca_fit(X, out_dim=4)
        rows = pca_transform_rows(model, X[:5])
        for i in range(5):
            assert_allclose(
                rows[i], pca_transform_rows(model, X[i : i + 1])[0], rtol=0, atol=1e-15
            )

    def test_mean_vector_raises(self):
        rng = np.random.default_rng(25)
        X = rng.standard_normal((12, 5))
        model = pca_fit(X, out_dim=3)
        with pytest.raises(NormalizationError):
            pca_transform_rows(model, model.mean[None, :].copy())

    def test_fit_preconditions(self):
        rng = np.random.default_rng(26)
        with pytest.raises(ShapeError):
            pca_fit(rng.standard_normal((1, 5)), out_dim=1)
        with pytest.raises(ShapeError):
            pca_fit(rng.standard_normal((4, 5)), out_dim=4)  # above n - 1
        with pytest.raises(ShapeError):
            pca_fit(rng.standard_normal((10, 3)), out_dim=4)  # above d


class TestCumulativeEnergy:
    def test_example(self):
        out = cumulative_energy(np.array([4.0, 3.0, 2.0, 1.0]))
        assert_allclose(out, [0.4, 0.7, 0.9, 1.0], rtol=1e-15, atol=0)

    def test_final_entry_is_one(self):
        rng = np.random.default_rng(27)
        evals = np.sort(rng.uniform(0.01, 5.0, size=9))[::-1]
        out = cumulative_energy(evals)
        assert out[-1] == 1.0
        assert np.all(np.diff(out) >= 0)

    def test_all_zero_raises(self):
        with pytest.raises(NumericalError):
            cumulative_energy(np.zeros(4))
