"""Loss values, gradients, and invariances of the training objective.

Oracles are brute-force pair loops written independently of the vectorized
implementation: every value check walks ordered index pairs in Python and
accumulates with math.fsum. Gradient checks use central finite differences
on batches sampled away from hinge kinks and neighbor ties.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from spherekit import (
    ContrastiveConfig,
    DegenerateBatchError,
    LabeledEmbeddingBatch,
    MemoryBank,
    NormalizationError,
    NumericalError,
    backprop_through_normalization_rows,
    combined_loss,
    contrastive_loss,
    koleo_loss,
)
from spherekit.errors import ShapeError

from conftest import FD_RTOL, central_diff, rel_err, safe_batch, unit_rows


def batch(Z, labels, validate=True):
    return LabeledEmbeddingBatch(
        np.asarray(Z, dtype=np.float64), np.asarray(labels, dtype=np.int64), validate
    )


def contrastive_oracle(Z, labels, beta, mem_Z=None, mem_labels=None):
    """Ordered-pair loop reference for value, term split, and gradient."""
    n = len(Z)
    pos_terms, neg_terms = [], []
    grad = np.zeros_like(Z, dtype=np.float64)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            s = float(Z[i] @ Z[j])
            if labels[i] == labels[j]:
                pos_terms.append(1.0 - s)
                grad[i] -= Z[j] / n
                grad[j] -= Z[i] / n
            elif s > beta:
                neg_terms.append(s - beta)
                grad[i] += Z[j] / n
                grad[j] += Z[i] / n
    if mem_Z is not None:
        for i in range(n):
            for m in range(len(mem_Z)):
                s = float(Z[i] @ mem_Z[m])
                if labels[i] == mem_labels[m]:
                    pos_terms.append(1.0 - s)
                    grad[i] -= mem_Z[m] / n
                elif s > beta:
                    neg_terms.append(s - beta)
                    grad[i] += mem_Z[m] / n
    positive = math.fsum(pos_terms) / n
    negative = math.fsum(neg_terms) / n
    return positive + negative, positive, negative, grad


def koleo_oracle(Z):
    """Nearest-neighbor loop reference; first index wins distance ties."""
    n = len(Z)
    rho = np.empty(n)
    nn = np.empty(n, dtype=np.int64)
    for i in range(n):
        best = np.inf
        best_j = -1
        for j in range(n):
            if j == i:
                continue
            dist = float(np.sqrt(np.dot(Z[i] - Z[j], Z[i] - Z[j])))
            if dist < best:
                best, best_j = dist, j
        rho[i], nn[i] = best, best_j
    value = -math.fsum(math.log(r) for r in rho) / n
    grad = np.zeros_like(Z, dtype=np.float64)
    for i in range(n):
        pull = (Z[i] - Z[nn[i]]) / (n * rho[i] ** 2)
        grad[i] -= pull
        grad[nn[i]] += pull
    return value, grad


class TestContrastiveExamples:
    def test_identical_positive_pair_is_zero(self):
        out = contrastive_loss(batch([[1.0, 0.0], [1.0, 0.0]], [0, 0]), None, 0.5)
        assert out.value == 0.0
        assert out.term_breakdown.positive == 0.0
        assert out.term_breakdown.negative == 0.0

    def test_orthogonal_negatives_are_zero(self):
        out = contrastive_loss(batch([[1.0, 0.0], [0.0, 1.0]], [0, 1]), None, 0.5)
        assert out.value == 0.0
        assert_array_equal(out.grad, np.zeros((2, 2)))

    def test_margin_violation_pair(self):
        Z = [[1.0, 0.0], [0.6, 0.8]]
        out = contrastive_loss(batch(Z, [0, 1]), None, 0.5)
        assert_allclose(out.value, 0.1, rtol=1e-12, atol=0)

    def test_hinge_is_strict_at_threshold(self):
        # similarity exactly at the margin contributes nothing
        Z = [[1.0, 0.0], [0.5, np.sqrt(0.75)]]
        out = contrastive_loss(batch(Z, [0, 1]), None, 0.5)
        assert out.value == 0.0
        assert_array_equal(out.grad, np.zeros((2, 2)))


class TestContrastiveAgainstOracle:
    @pytest.mark.parametrize("n,d", [(4, 4), (4, 16), (32, 4), (32, 16), (7, 5)])
    def test_values_and_gradient(self, n, d):
        rng = np.random.default_rng(100 + n * d)
        Z = unit_rows(rng, n, d)
        labels = rng.integers(0, 3, size=n)
        out = contrastive_loss(batch(Z, labels), None, 0.4)
        val, pos, neg, grad = contrastive_oracle(Z, labels, 0.4)
        assert_allclose(out.value, val, rtol=1e-12, atol=1e-14)
        assert_allclose(out.term_breakdown.positive, pos, rtol=1e-12, atol=1e-14)
        assert_allclose(out.term_breakdown.negative, neg, rtol=1e-12, atol=1e-14)
        assert_allclose(out.grad, grad, rtol=1e-12, atol=1e-14)

    def test_with_memory(self):
        rng = np.random.default_rng(101)
        Z = unit_rows(rng, 6, 5)
        labels = rng.integers(0, 3, size=6)
        mem_Z = unit_rows(rng, 9, 5)
        mem_labels = rng.integers(0, 3, size=9)
        bank = MemoryBank(capacity=9, dim=5)
        bank.enqueue(batch(mem_Z, mem_labels))
        out = contrastive_loss(batch(Z, labels), bank.view(), 0.3)
        val, pos, neg, grad = contrastive_oracle(Z, labels, 0.3, mem_Z, mem_labels)
        assert_allclose(out.value, val, rtol=1e-12, atol=1e-14)
        assert_allclose(out.grad, grad, rtol=1e-12, atol=1e-14)
        assert out.grad.shape == (6, 5)

    def test_breakdown_sum_is_exact(self):
        rng = np.random.default_rng(102)
        Z = unit_rows(rng, 10, 4)
        labels = rng.integers(0, 2, size=10)
        out = contrastive_loss(batch(Z, labels), None, 0.5)
        assert out.value == out.term_breakdown.positive + out.term_breakdown.negative

    def test_gradient_row_count_matches_batch(self):
        rng = np.random.default_rng(103)
        for n_mem in (0, 3, 20):
            Z = unit_rows(rng, 5, 4)
            labels = rng.integers(0, 2, size=5)
            memory = None
            if n_mem:
                bank = MemoryBank(capacity=n_mem, dim=4)
                bank.enqueue(batch(unit_rows(rng, n_mem, 4), rng.integers(0, 2, n_mem)))
                memory = bank.view()
            out = contrastive_loss(batch(Z, labels), memory, 0.5)
            assert out.grad.shape == (5, 4)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(104)
        Z, labels = safe_batch(rng, 12, 6, beta=0.5)
        perm = rng.permutation(12)
        out = contrastive_loss(batch(Z, labels), None, 0.5)
        out_p = contrastive_loss(batch(Z[perm], labels[perm]), None, 0.5)
        assert_allclose(out_p.value, out.value, rtol=1e-12, atol=0)
        assert_allclose(out_p.grad, out.grad[perm], rtol=1e-12, atol=1e-14)

    def test_value_nonincreasing_in_margin(self):
        rng = np.random.default_rng(105)
        Z = unit_rows(rng, 10, 5)
        labels = rng.integers(0, 3, size=10)
        values = [
            contrastive_loss(batch(Z, labels), None, b).value
            for b in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        for lo, hi in zip(values, values[1:]):
            assert hi <= lo

    def test_rotation_invariant_value(self):
        rng = np.random.default_rng(106)
        Z = unit_rows(rng, 8, 5)
        labels = rng.integers(0, 2, size=8)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        ZQ = (Z @ Q) / np.linalg.norm(Z @ Q, axis=1, keepdims=True)
        a = contrastive_loss(batch(Z, labels), None, 0.5).value
        b = contrastive_loss(batch(ZQ, labels), None, 0.5).value
        assert_allclose(b, a, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("n,d", [(4, 4), (4, 16), (32, 4), (32, 16)])
    def test_finite_differences(self, n, d):
        rng = np.random.default_rng(200 + n + d)
        Z, labels = safe_batch(rng, n, d, beta=0.5)

        def f(A):
            return contrastive_loss(batch(A, labels, validate=False), None, 0.5).value

        out = contrastive_loss(batch(Z, labels), None, 0.5)
        assert rel_err(central_diff(f, Z), out.grad) < FD_RTOL

    def test_finite_differences_with_memory(self):
        rng = np.random.default_rng(201)
        Z, labels = safe_batch(rng, 6, 5, beta=0.5)
        mem_Z = unit_rows(rng, 7, 5)
        mem_labels = rng.integers(0, 2, size=7)
        # resample memory until it is clear of the batch's hinge threshold
        while np.any(np.abs(Z @ mem_Z.T - 0.5) <= 1e-3):
            mem_Z = unit_rows(rng, 7, 5)
        bank = MemoryBank(capacity=7, dim=5)
        bank.enqueue(batch(mem_Z, mem_labels))
        view = bank.view()

        def f(A):
            return contrastive_loss(batch(A, labels, validate=False), view, 0.5).value

        out = contrastive_loss(batch(Z, labels), view, 0.5)
        assert rel_err(central_diff(f, Z), out.grad) < FD_RTOL


class TestKoleo:
    def test_antipodal_pair(self):
        out = koleo_loss(batch([[1.0, 0.0], [-1.0, 0.0]], [0, 1]))
        assert_allclose(out.value, -np.log(2.0), rtol=0, atol=1e-12)

    def test_orthogonal_pair(self):
        out = koleo_loss(batch([[1.0, 0.0], [0.0, 1.0]], [0, 1]))
        assert_allclose(out.value, -0.5 * np.log(2.0), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_against_brute_force(self, n):
        rng = np.random.default_rng(300 + n)
        Z = unit_rows(rng, n, 4)
        out = koleo_loss(batch(Z, np.zeros(n, dtype=np.int64)))
        val, grad = koleo_oracle(Z)
        assert_allclose(out.value, val, rtol=1e-12, atol=1e-12)
        assert_allclose(out.grad, grad, rtol=1e-12, atol=1e-12)

    def test_ignores_labels_bitwise(self):
        rng = np.random.default_rng(301)
        Z = unit_rows(rng, 6, 4)
        a = koleo_loss(batch(Z, np.zeros(6, dtype=np.int64)))
        b = koleo_loss(batch(Z, np.arange(6)))
        assert a.value == b.value
        assert_array_equal(a.grad, b.grad)

    def test_tie_goes_to_lowest_index(self):
        # row 0 is equidistant from rows 1 and 2; the loop oracle keeps the
        # first minimum, so exact gradient agreement checks the tie rule
        Z = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.0, 1.0],
                [-1.0, 0.0, 0.0],
            ]
        )
        out = koleo_loss(batch(Z, [0, 1, 2, 3]))
        val, grad = koleo_oracle(Z)
        assert_allclose(out.value, val, rtol=0, atol=1e-14)
        assert_array_equal(out.grad, grad)

    def test_rotation_invariant_value(self):
        rng = np.random.default_rng(302)
        Z = unit_rows(rng, 9, 5)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        ZQ = (Z @ Q) / np.linalg.norm(Z @ Q, axis=1, keepdims=True)
        a = koleo_loss(batch(Z, np.zeros(9, dtype=np.int64))).value
        b = koleo_loss(batch(ZQ, np.zeros(9, dtype=np.int64))).value
        assert_allclose(b, a, rtol=0, atol=1e-9)

    def test_duplicate_rows_raise(self):
        Z = [[1.0, 0.0], [1.0, 0.0]]
        with pytest.raises(DegenerateBatchError, match="rows 0 and 1"):
            koleo_loss(batch(Z, [0, 1]))

    @pytest.mark.parametrize("n,d", [(4, 4), (4, 16), (32, 4), (32, 16)])
    def test_finite_differences(self, n, d):
        rng = np.random.default_rng(400 + n + d)
        Z, labels = safe_batch(rng, n, d, beta=0.5)

        def f(A):
            return koleo_loss(batch(A, labels, validate=False)).value

        out = koleo_loss(batch(Z, labels))
        assert rel_err(central_diff(f, Z), out.grad) < FD_RTOL


class TestCombined:
    def test_lambda_zero_matches_contrastive_bitwise(self):
        rng = np.random.default_rng(500)
        Z = unit_rows(rng, 8, 4)
        labels = rng.integers(0, 2, size=8)
        cfg = ContrastiveConfig(beta=0.5, lam=0.0)
        a = combined_loss(batch(Z, labels), None, cfg)
        b = contrastive_loss(batch(Z, labels), None, 0.5)
        assert a.value == b.value
        assert_array_equal(a.grad, b.grad)
        assert a.term_breakdown == b.term_breakdown

    def test_lambda_zero_tolerates_duplicate_rows(self):
        # the entropy term would diverge, but it is not evaluated at lam=0
        Z = [[1.0, 0.0], [1.0, 0.0]]
        out = combined_loss(batch(Z, [0, 0]), None, ContrastiveConfig(0.5, 0.0))
        assert out.value == 0.0

    def test_lambda_positive_raises_on_duplicates(self):
        Z = [[1.0, 0.0], [1.0, 0.0]]
        with pytest.raises(DegenerateBatchError):
            combined_loss(batch(Z, [0, 0]), None, ContrastiveConfig(0.5, 0.7))

    def test_combination_is_exact(self):
        rng = np.random.default_rng(501)
        Z = unit_rows(rng, 10, 5)
        labels = rng.integers(0, 3, size=10)
        cfg = ContrastiveConfig(beta=0.4, lam=0.7)
        out = combined_loss(batch(Z, labels), None, cfg)
        contr = contrastive_loss(batch(Z, labels), None, 0.4)
        ent = koleo_loss(batch(Z, labels))
        assert out.value == contr.value + cfg.lam * ent.value
        assert_array_equal(out.grad, contr.grad + cfg.lam * ent.grad)
        assert out.term_breakdown.positive == contr.term_breakdown.positive
        assert out.term_breakdown.negative == contr.term_breakdown.negative
        assert out.term_breakdown.regularizer == ent.value

    def test_breakdown_reassembles_value(self):
        rng = np.random.default_rng(502)
        Z = unit_rows(rng, 9, 4)
        labels = rng.integers(0, 2, size=9)
        cfg = ContrastiveConfig(beta=0.5, lam=0.7)
        out = combined_loss(batch(Z, labels), None, cfg)
        tb = out.term_breakdown
        assert out.value == (tb.positive + tb.negative) + cfg.lam * tb.regularizer

    @pytest.mark.parametrize("n,d", [(4, 4), (4, 16), (32, 4), (32, 16)])
    def test_finite_differences(self, n, d):
        rng = np.random.default_rng(600 + n + d)
        Z, labels = safe_batch(rng, n, d, beta=0.5)
        cfg = ContrastiveConfig(beta=0.5, lam=0.7)

        def f(A):
            return combined_loss(batch(A, labels, validate=False), None, cfg).value

        out = combined_loss(batch(Z, labels), None, cfg)
        assert rel_err(central_diff(f, Z), out.grad) < FD_RTOL


class TestEntropyProxies:
    """The two contrastive terms read as mutual-information proxies.

    The positive term is the within-class spread (a conditional-entropy
    proxy) and minus the negative term the cross-class spread (an entropy
    proxy); both come from ``contrastive_loss(...).term_breakdown``.
    """

    def test_conditional_example(self):
        b = batch([[1.0, 0.0], [0.8, 0.6]], [3, 3])
        terms = contrastive_loss(b, None, 0.5).term_breakdown
        assert_allclose(terms.positive, 0.2, rtol=1e-12, atol=0)

    def test_entropy_example(self):
        b = batch([[1.0, 0.0], [0.7, np.sqrt(0.51)]], [0, 1])
        terms = contrastive_loss(b, None, 0.5).term_breakdown
        assert_allclose(-terms.negative, -0.2, rtol=1e-12, atol=0)

    def test_against_pair_loops(self):
        rng = np.random.default_rng(700)
        Z = unit_rows(rng, 11, 5)
        labels = rng.integers(0, 3, size=11)
        n = len(Z)
        cond_terms, ent_terms = [], []
        for i in range(n):
            for j in range(n):
                if j == i:
                    continue
                s = float(Z[i] @ Z[j])
                if labels[i] == labels[j]:
                    cond_terms.append(1.0 - s)
                elif s > 0.5:
                    ent_terms.append(s - 0.5)
        terms = contrastive_loss(batch(Z, labels), None, 0.5).term_breakdown
        assert_allclose(terms.positive, math.fsum(cond_terms) / n, rtol=1e-12)
        assert_allclose(-terms.negative, -math.fsum(ent_terms) / n, rtol=1e-12)


class TestNormalizationBackprop:
    def test_single_vector_finite_differences(self):
        rng = np.random.default_rng(800)
        for _ in range(10):
            e = rng.standard_normal((1, 6)) * rng.uniform(0.2, 4.0)
            g = rng.standard_normal((1, 6))

            def f(x):
                return float(np.sum(g * (x / np.linalg.norm(x))))

            analytic = backprop_through_normalization_rows(e, g)
            assert rel_err(central_diff(f, e), analytic) < 1e-6

    def test_rows_match_single(self):
        # rows are independent: one-row calls reproduce the batched rows
        rng = np.random.default_rng(801)
        E = rng.standard_normal((7, 5))
        G = rng.standard_normal((7, 5))
        rows = backprop_through_normalization_rows(E, G)
        for i in range(7):
            assert_allclose(
                rows[i],
                backprop_through_normalization_rows(E[i : i + 1], G[i : i + 1])[0],
                rtol=0,
                atol=1e-15,
            )

    def test_output_is_tangent(self):
        # the normalized vector never changes along its own direction
        rng = np.random.default_rng(802)
        E = rng.standard_normal((6, 8))
        G = rng.standard_normal((6, 8))
        back = backprop_through_normalization_rows(E, G)
        radial = np.sum(back * E, axis=1) / np.linalg.norm(E, axis=1)
        assert np.max(np.abs(radial)) < 1e-12


class TestBatchValidation:
    def test_rejects_single_row(self):
        with pytest.raises(ShapeError):
            batch([[1.0, 0.0]], [0])

    def test_rejects_one_dimension(self):
        with pytest.raises(ShapeError):
            batch([[1.0], [1.0]], [0, 1])

    def test_rejects_non_unit_rows(self):
        with pytest.raises(NormalizationError):
            batch([[1.0, 0.0], [2.0, 0.0]], [0, 1])

    def test_rejects_label_length_mismatch(self):
        with pytest.raises(ShapeError):
            batch(np.eye(2), [0, 1, 2])

    def test_rejects_non_finite(self):
        Z = np.eye(2)
        Z[0, 0] = np.nan
        with pytest.raises(NumericalError):
            batch(Z, [0, 1])

    def test_validate_false_skips_unit_check(self):
        b = batch([[2.0, 0.0], [0.0, 3.0]], [0, 1], validate=False)
        assert b.embeddings[0, 0] == 2.0

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.5, 1.5])
    def test_margin_bounds(self, beta):
        b = batch(np.eye(2), [0, 1])
        with pytest.raises(ValueError):
            contrastive_loss(b, None, beta)
        with pytest.raises(ValueError):
            ContrastiveConfig(beta=beta, lam=0.7)

    def test_negative_regularizer_weight(self):
        with pytest.raises(ValueError):
            ContrastiveConfig(beta=0.5, lam=-0.1)
