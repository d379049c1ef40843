"""Loss values, gradients, and invariances of the training objective.

Oracles are brute-force pair loops written independently of the vectorized
implementation: every value check walks ordered index pairs in Python and
accumulates with math.fsum. Gradient checks use central finite differences
on batches sampled away from hinge kinks and neighbor ties.
"""

import contextlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spherekit import (
    ContrastiveConfig,
    DegenerateBatchError,
    LabeledEmbeddingBatch,
    MemoryBank,
    MemoryView,
    NormalizationError,
    NumericalError,
    backprop_through_normalization_rows,
    combined_loss,
    contrastive_loss,
    koleo_loss,
)
from spherekit import _screen, objective
from spherekit.errors import ShapeError

from conftest import FD_RTOL, central_diff, rel_err, rows_at_similarity, safe_batch, unit_rows


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


def dense_contrastive_reference(Z, labels, beta, mem_Z, mem_labels):
    """The dense masked formulas: every memory column enters every sum."""
    n = Z.shape[0]
    sims = Z @ Z.T
    same = labels[:, None] == labels[None, :]
    np.fill_diagonal(same, False)
    active = (labels[:, None] != labels[None, :]) & (sims > beta)
    positive = float(np.sum(np.where(same, 1.0 - sims, 0.0))) / n
    negative = float(np.sum(np.where(active, sims - beta, 0.0))) / n
    grad = (2.0 / n) * ((active.astype(np.float64) - same.astype(np.float64)) @ Z)
    sims_m = Z @ mem_Z.T
    same_m = labels[:, None] == mem_labels[None, :]
    active_m = ~same_m & (sims_m > beta)
    positive += float(np.sum(np.where(same_m, 1.0 - sims_m, 0.0))) / n
    negative += float(np.sum(np.where(active_m, sims_m - beta, 0.0))) / n
    grad += (active_m.astype(np.float64) - same_m.astype(np.float64)) @ mem_Z / n
    return positive + negative, positive, negative, grad


class TestMemoryTermProperty:
    """The memory term equals the dense formulas.

    The sums gather masked similarities and the gradient multiplies touched
    memory columns only; the reference enters every column everywhere.

    ``case`` picks the memory: random labels; labels disjoint from the batch
    with the margin just above the largest similarity (no column touched);
    or labels drawn from the batch's own (every column touched).
    """

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(2, 12),
        m=st.integers(1, 40),
        d=st.integers(2, 8),
        beta=st.floats(0.05, 0.95),
        case=st.sampled_from(["random", "none_active", "all_touched"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=5, m=1, d=3, beta=0.3, case="random", seed=0)
    @example(n=5, m=1, d=3, beta=0.3, case="none_active", seed=1)
    @example(n=5, m=1, d=3, beta=0.3, case="all_touched", seed=2)
    def test_matches_dense_reference(self, n, m, d, beta, case, seed):
        rng = np.random.default_rng(seed)
        Z = unit_rows(rng, n, d)
        labels = rng.integers(0, 4, size=n)
        mem_Z = unit_rows(rng, m, d)
        if case == "none_active":
            mem_labels = rng.integers(4, 8, size=m)
            # Just above the largest similarity, so no column is touched
            # whatever the last bit of any one evaluation of it.
            beta = max(float((Z @ mem_Z.T).max()) + 1e-9, 0.05)
        elif case == "all_touched":
            mem_labels = rng.choice(labels, size=m)
        else:
            mem_labels = rng.integers(0, 6, size=m)
        out = contrastive_loss(batch(Z, labels), MemoryView(mem_Z, mem_labels), beta)
        value, positive, negative, grad = dense_contrastive_reference(
            Z, labels, beta, mem_Z, mem_labels
        )
        assert_allclose(out.value, value, rtol=1e-12, atol=0)
        assert_allclose(out.term_breakdown.positive, positive, rtol=1e-12, atol=0)
        assert_allclose(out.term_breakdown.negative, negative, rtol=1e-12, atol=0)
        assert np.allclose(out.grad, grad)


def per_pair_memory_reference(Z, labels, beta, mem_Z, mem_labels):
    """Memory term from the float64 row dot of every (anchor, memory row)
    pair, the evaluation the loss decides its active pairs by."""
    n, m = len(Z), len(mem_Z)
    sims = np.stack([
        np.einsum("ij,ij->i", np.repeat(Z[i : i + 1], m, axis=0), mem_Z)
        for i in range(n)
    ])
    same = labels[:, None] == mem_labels[None, :]
    active = ~same & (sims > beta)
    positive = math.fsum(1.0 - sims[same]) / n
    negative = math.fsum(sims[active] - beta) / n
    grad = (active.astype(np.float64) - same) @ mem_Z / n
    return positive, negative, grad


@contextlib.contextmanager
def forced_memory_path(float32):
    """Make the loss decide memory pairs on float32 tiles (a share of 1: no
    passes send them on) or on float64 tiles (a share of 0: the first pass
    does).

    Blocks of one score screen one memory row (the least block of whole
    anchor rows) and one pair dot at a time.
    """
    with mock.patch.object(_screen, "_PER_PAIR_SHARE", 1.0 if float32 else 0.0), \
            mock.patch.object(objective, "_BLOCK_VALUES", 1):
        yield


def tile_dtypes(monkeypatch):
    """The dtype of each tile the memory term's ``_span_tiles`` yields, in order."""
    seen, spans = [], _screen._span_tiles

    def spied(*args):
        for start, stop, tiles in spans(*args):
            yield start, stop, (seen.append(tile[2].dtype) or tile for tile in tiles)
    monkeypatch.setattr(_screen, "_span_tiles", spied)
    return seen


class TestMemoryScreen:
    """Either precision of the screen decides only pairs whose row dot is on
    the decided side of beta."""

    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(
        n=st.integers(2, 8),
        m=st.integers(2, 30),
        d=st.sampled_from([2, 3, 17, 64, 128, 383, 384]),
        beta=st.floats(0.05, 0.9),
        widths=st.floats(0.0, 3.0),
        off_sphere=st.booleans(),
        through_bank=st.booleans(),
        float32=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=8, m=30, d=384, beta=0.5, widths=3.0, off_sphere=True,
             through_bank=False, float32=True, seed=0)
    @example(n=8, m=30, d=128, beta=0.5, widths=1.0, off_sphere=False,
             through_bank=True, float32=False, seed=1)
    def test_matches_per_pair_float64(self, n, m, d, beta, widths, off_sphere,
                                      through_bank, float32, seed):
        rng = np.random.default_rng(seed)
        Z = unit_rows(rng, n, d)
        if off_sphere:
            Z *= rng.uniform(0.99, 1.01, size=(n, 1))
        labels = rng.integers(0, 4, size=n)
        # Most memory rows sit within +-widths slack widths of the margin
        # against a random anchor, at log-spread offsets from 1e-4 widths
        # up, so some land where float32 and float64 disagree; the rest are
        # random.
        anchors = rng.integers(0, n, size=m)
        width = (2 * d + 8) * 2.0**-24 * np.linalg.norm(Z[anchors], axis=1)
        offsets = rng.choice([-1.0, 1.0], size=m) * widths * 10.0 ** rng.uniform(-4, 0, size=m)
        targets = beta + offsets * width
        mem_Z = rows_at_similarity(rng, Z[anchors], targets)
        random_rows = rng.random(m) < 0.2
        mem_Z[random_rows] = unit_rows(rng, int(random_rows.sum()), d)
        mem_labels = rng.integers(0, 8, size=m)
        if through_bank:
            bank = MemoryBank(capacity=m, dim=d)
            bank.enqueue(batch(mem_Z, mem_labels))
            view = bank.view()
        else:
            if off_sphere:
                mem_Z = mem_Z * rng.uniform(0.99, 1.01, size=(m, 1))
            view = MemoryView(mem_Z, mem_labels)
        probe = batch(Z, labels, validate=False)
        # Force the precision of the screen's tiles, and screen these small
        # memories one row at a time.
        with forced_memory_path(float32):
            out = contrastive_loss(probe, view, beta)
        alone = contrastive_loss(probe, None, beta)
        positive, negative, grad = per_pair_memory_reference(
            Z, labels, beta, mem_Z, mem_labels
        )
        assert_allclose(out.term_breakdown.positive - alone.term_breakdown.positive,
                        positive, rtol=1e-12, atol=1e-15)
        assert_allclose(out.term_breakdown.negative - alone.term_breakdown.negative,
                        negative, rtol=1e-12, atol=1e-15)
        # One pair more or less in the active set moves a row by 1/n.
        assert_allclose(out.grad - alone.grad, grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("through_bank", [False, True])
    def test_exact_tie_adds_nothing(self, through_bank):
        Z = np.array([[1.0, 0.0], [-1.0, 0.0]])
        mem_Z = np.array([[0.5, math.sqrt(0.75)], [0.0, -1.0]])
        mem_labels = np.array([2, 3])
        if through_bank:
            bank = MemoryBank(capacity=2, dim=2)
            bank.enqueue(batch(mem_Z, mem_labels))
            view = bank.view()
        else:
            view = MemoryView(mem_Z, mem_labels)
        for per_pair in (False, True):
            with forced_memory_path(per_pair):
                out = contrastive_loss(batch(Z, [0, 1]), view, 0.5)
            alone = contrastive_loss(batch(Z, [0, 1]), None, 0.5)
            assert out.value == alone.value
            assert out.grad.tobytes() == alone.grad.tobytes()

    @pytest.mark.parametrize("case", ["same_label", "near_batch", "low_beta"])
    def test_many_touched_pairs_stay_within_the_dense_product(self, case):
        # 64 anchors against a full 16,000-row bank at d 128 (category-xbm
        # size) with many pairs past the screen: every column a positive,
        # every pair a hinge candidate near 1, or beta 0.1 over random rows
        # (about 1 pair in 8). The pairs are then decided on float64 tiles,
        # and the term holds less than four n x M float64 matrices at once.
        rng = np.random.default_rng(11)
        n, m, d = 64, 16_000, 128
        Z = unit_rows(rng, n, d)
        labels = np.arange(n)
        mem_Z = unit_rows(rng, m, d)
        mem_labels = rng.integers(n, 2 * n, size=m)
        beta = 0.5
        if case == "same_label":
            mem_labels = labels[rng.integers(0, n, size=m)]
        elif case == "near_batch":
            mem_Z = Z[rng.integers(0, n, size=m)] + 1e-3 * mem_Z
            mem_Z /= np.linalg.norm(mem_Z, axis=1, keepdims=True)
        else:
            beta = 0.1
        bank = MemoryBank(capacity=m, dim=d)
        bank.enqueue(batch(mem_Z, mem_labels))
        self.check_peak_and_values(Z, labels, bank.view(), beta, 4 * n * m * 8)

    def test_per_pair_dots_are_gathered_in_blocks(self, monkeypatch):
        # 64 copies of one anchor, and the last 125 memory rows 5e-6 under
        # the margin against it, a third of the float32 slack: 8,000 pairs
        # that no float32 score decides, the most that stay on float32
        # tiles. Gathered at once their rows would take two n x M float64
        # matrices; in blocks the term holds less than one. None of them is
        # active (a hinge sum of pairs on the margin is the subject of
        # TestMemoryRoutes.test_hinge_sum_on_the_margin_is_within_its_rounding);
        # the anchors share the label of the first 125 rows: 8,000 positives.
        rng = np.random.default_rng(12)
        n, m, d = 64, 16_000, 128
        Z = np.repeat(unit_rows(rng, 1, d), n, axis=0)
        labels = np.zeros(n, dtype=np.int64)
        mem_Z = unit_rows(rng, m, d)
        mem_Z[-125:] = rows_at_similarity(rng, Z[np.zeros(125, dtype=np.int64)],
                                          np.full(125, 0.9 - 5e-6))
        mem_labels = np.where(np.arange(m) < 125, 0, np.arange(m))
        bank = MemoryBank(capacity=m, dim=d)
        bank.enqueue(batch(mem_Z, mem_labels))
        dtypes = tile_dtypes(monkeypatch)
        self.check_peak_and_values(Z, labels, bank.view(), 0.9, n * m * 8)
        assert set(dtypes) == {np.dtype(np.float32)}

    def test_desk_step_holds_less_than_one_pair_per_byte(self):
        # 64 anchors of 16 labels against a full 15,200-row bank at d 128 and
        # beta 0.5, a category-xbm step: random rows, about 130 of them
        # sharing an anchor's label. The pairs are decided from each tile's
        # passes alone, with no (memory rows, anchors) mask, so the term
        # holds less than n x M bytes.
        rng = np.random.default_rng(15)
        n, m, d = 64, 15_200, 128
        bank = MemoryBank(capacity=m, dim=d)
        bank.enqueue(batch(unit_rows(rng, m, d), rng.integers(0, 1_900, size=m)))
        self.check_peak_and_values(unit_rows(rng, n, d), np.arange(n) // 4, bank.view(),
                                   0.5, n * m)

    @pytest.mark.parametrize("beta", [0.1, 0.5])
    def test_a_memory_of_one_tile_takes_the_float32_screen(self, monkeypatch, beta):
        # 8 anchors x 50 memory rows fit one tile. Its pairs are screened in
        # float32 like those of any memory (a share of 1: no passes send them
        # on), and decided as their row dots.
        rng = np.random.default_rng(16)
        Z, mem_Z = unit_rows(rng, 8, 16), unit_rows(rng, 50, 16)
        labels, mem_labels = np.arange(8) % 4, np.arange(50) % 6
        monkeypatch.setattr(_screen, "_PER_PAIR_SHARE", 1.0)
        dtypes = tile_dtypes(monkeypatch)
        got = objective._memory_pairs(Z, labels, mem_Z, mem_labels, mem_Z.astype(np.float32),
                                      1.0 + 1e-9, beta)
        assert dtypes == [np.dtype(np.float32)]
        assert_same_memory_pairs(
            got, full_matrix_memory_pairs(Z, labels, mem_Z, mem_labels, beta))
        assert got[2][0].size  # some hinge pairs are active

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("n, m", [(8, 50), (64, 3000)])
    def test_non_finite_row_of_a_hand_built_view_raises(self, monkeypatch, n, m, value):
        # 8 x 50 pairs fit one tile and 64 x 3,000 take several.
        # Memory row 7 carries a label no anchor has; skipped, a NaN row
        # would leave the loss and gradient as they are without it.
        rng = np.random.default_rng(13)
        Z = unit_rows(rng, n, 16)
        mem_Z = unit_rows(rng, m, 16)
        mem_Z[7, 3] = value
        view = MemoryView(mem_Z, 4 + np.arange(m) % 4)
        tiles = []
        monkeypatch.setattr(_screen, "_span_tiles", lambda *a: tiles.append(1) or iter(()))
        with pytest.raises(NumericalError, match="memory row 7 contains non-finite values"):
            contrastive_loss(batch(Z, np.arange(n) % 4), view, 0.5)
        assert not tiles

    @pytest.mark.parametrize("mem_labels", [
        np.full(50, np.nan), np.arange(50) % 4 + 0.0, np.array(["a", "b"] * 25),
    ])
    def test_non_integer_labels_of_a_hand_built_view_raise(self, monkeypatch, mem_labels):
        rng = np.random.default_rng(15)
        view = MemoryView(unit_rows(rng, 50, 16), mem_labels)
        tiles = []
        monkeypatch.setattr(_screen, "_span_tiles", lambda *a: tiles.append(1) or iter(()))
        with pytest.raises(ShapeError, match="memory labels must be integers"):
            contrastive_loss(batch(unit_rows(rng, 8, 16), np.arange(8) % 4), view, 0.5)
        assert not tiles
        # An empty view is no memory, whatever its labels' dtype.
        probe = batch(unit_rows(rng, 8, 16), np.arange(8) % 4)
        empty = contrastive_loss(probe, MemoryView(np.zeros((0, 16)), np.array([])), 0.5)
        assert empty.value == contrastive_loss(probe, None, 0.5).value

    @pytest.mark.parametrize("row", ["2**61", "2**130", "one-entry-overflows"])
    def test_an_anchor_past_the_proven_range_keeps_all_its_pairs(self, monkeypatch, row):
        # Anchor 3's float32 bound is -inf. At 2**130 its float32 copy
        # overflows; with only its first entry past float32 (2**128), a pair
        # whose memory row has a negative first entry would score -inf in
        # float32 however far above the margin it is. So the pairs go to
        # float64 tiles, where anchor 3 scores 0, between its bounds -inf and
        # +inf: every pair of it is a row dot.
        rng = np.random.default_rng(14)
        Z = unit_rows(rng, 8, 16)
        if row == "one-entry-overflows":
            Z[3] = 0.0
            Z[3, :2] = [2.0**128, 1.5 * 2.0**127]
        else:
            Z[3] *= 2.0 ** int(row[3:])
        mem_Z = unit_rows(rng, 400, 16)
        assert np.any((mem_Z[:, 0] < 0) & (mem_Z @ Z[3] > 0.5))
        labels, mem_labels = np.arange(8) % 3, rng.integers(0, 6, size=400)
        monkeypatch.setattr(objective, "_BLOCK_VALUES", 16 * 8)
        monkeypatch.setattr(_screen, "_PER_PAIR_SHARE", 1.0)
        dtypes = tile_dtypes(monkeypatch)
        got = objective._memory_pairs(Z, labels, mem_Z, mem_labels, mem_Z.astype(np.float32),
                                      1.0 + 1e-9, 0.5)
        assert_same_memory_pairs(got, full_matrix_memory_pairs(Z, labels, mem_Z, mem_labels, 0.5))
        assert 3 in got[2][1]
        assert set(dtypes) == {np.dtype(np.float64)}

    @staticmethod
    def check_peak_and_values(Z, labels, view, beta, max_bytes):
        probe = batch(Z, labels)
        alone = contrastive_loss(probe, None, beta)
        tracemalloc.start()
        try:
            out = contrastive_loss(probe, view, beta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < max_bytes
        positive, negative, grad = per_pair_memory_reference(
            Z, labels, beta, view.descriptors, view.labels
        )
        assert_allclose(out.term_breakdown.positive - alone.term_breakdown.positive,
                        positive, rtol=1e-12)
        assert_allclose(out.term_breakdown.negative - alone.term_breakdown.negative,
                        negative, rtol=1e-12, atol=1e-15)
        assert_allclose(out.grad - alone.grad, grad, rtol=0, atol=1e-12)


def full_matrix_memory_pairs(Z, labels, mem_Z, mem_labels, beta):
    """The memory term's decided sets from one row dot per pair: the memory
    rows that share a label with an anchor, those with an active pair, and
    the active pairs as (memory rows, anchors), ascending."""
    n, m = len(Z), len(mem_Z)
    mem_rows, anchors = np.divmod(np.arange(m * n), n)
    sims = _screen._row_dots(Z, anchors, mem_Z, mem_rows, 2**16).reshape(m, n)
    same = mem_labels[:, None] == labels
    active = ~same & (sims > beta)
    return np.flatnonzero(same.any(axis=1)), np.flatnonzero(active.any(axis=1)), np.nonzero(active)


def assert_same_memory_pairs(got, expected):
    """``_memory_pairs``' sets equal ``full_matrix_memory_pairs``' bit for bit."""
    assert len(got) == 3
    for a, b in zip((*got[:2], *got[2]), (*expected[:2], *expected[2])):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestMemoryPairsFlatScreen:
    """``_memory_pairs`` classifies only the passes of each tile; the sets it
    decides equal, bit for bit, those of one row dot per pair, whichever
    tiles decided them."""

    @pytest.mark.parametrize("case", ["screened", "unproven", "unproven_memory", "early_break"])
    def test_matches_full_matrix_formulation_bitwise(self, case, monkeypatch):
        rng = np.random.default_rng(31)
        n, m, d = 8, 400, 16
        Z = unit_rows(rng, n, d)
        labels = np.arange(n) % 3
        mem_Z = unit_rows(rng, m, d)
        mem_labels = n + np.arange(m)
        mem_labels[[10, 11, 12]] = [0, 1, 2]  # a few positives
        near = np.arange(m) % 50 == 0  # 8 rows near an anchor: hinge candidates
        if case == "early_break":
            near = np.arange(m) >= 300  # the last blocks pass every pair
        mem_Z[near] = Z[np.arange(near.sum()) % n] + 1e-2 * mem_Z[near]
        mem_Z /= np.linalg.norm(mem_Z, axis=1, keepdims=True)
        if case == "unproven":
            # Norms past 2**60: float32 bounds of -inf, so no float32 tile is
            # screened, and every pair of these rows is a row dot.
            Z[[2, 5]] *= 2.0**61
        monkeypatch.setattr(objective, "_BLOCK_VALUES", 16 * n)  # 25 blocks of 16 rows
        # A memory norm bound past 2**60 gives every anchor -inf: float64
        # tiles, every pair a row dot.
        norm_bound = 2.0**61 if case == "unproven_memory" else 1.0 + 1e-9
        dtypes = tile_dtypes(monkeypatch)
        got = objective._memory_pairs(Z, labels, mem_Z, mem_labels, mem_Z.astype(np.float32),
                                      norm_bound, 0.9)
        assert_same_memory_pairs(got, full_matrix_memory_pairs(Z, labels, mem_Z, mem_labels, 0.9))
        float32 = dtypes.count(np.dtype(np.float32))
        if case == "early_break":
            assert 0 < float32 < 25 and dtypes[float32:] == [np.dtype(np.float64)] * 25
        elif case == "screened":
            assert dtypes == [np.dtype(np.float32)] * 25
        else:
            assert dtypes == [np.dtype(np.float64)] * 25
        assert got[2][0].size  # some hinge pairs are active

    @pytest.mark.parametrize("share", [1.0, 0.0])
    def test_mixed_tiles_match_full_matrix_formulation_bitwise(self, share, monkeypatch):
        # Two blocks of 16 rows at beta 0.1 and d 16. Block 0 is random
        # rows, a third of its pairs active; in block 1 each row lies within
        # one float32 slack of beta against one anchor, every other row on
        # it to rounding, pairs only row dots decide on either route. Half
        # the rows share a label with some anchor. A share of 1 keeps
        # float32 tiles; a share of 0 leaves them at the first tile for
        # float64 ones.
        rng = np.random.default_rng(32)
        n, m, d, beta = 8, 32, 16, 0.1
        Z = unit_rows(rng, n, d)
        labels = np.arange(n) % 3
        mem_Z = unit_rows(rng, m, d)
        width = (2 * d + 8) * 2.0**-24
        offsets = np.where(np.arange(16) % 2, 0.0, rng.uniform(-1, 1, size=16))
        mem_Z[16:] = rows_at_similarity(rng, Z[np.arange(16) % n], beta + offsets * width)
        mem_labels = rng.integers(0, 6, size=m)
        monkeypatch.setattr(objective, "_BLOCK_VALUES", 16 * n)
        monkeypatch.setattr(_screen, "_PER_PAIR_SHARE", share)
        dtypes = tile_dtypes(monkeypatch)
        dotted, row_dots = [], _screen._row_dots
        monkeypatch.setattr(_screen, "_row_dots",
                            lambda *a: dotted.append(a[1].size) or row_dots(*a))
        got = objective._memory_pairs(Z, labels, mem_Z, mem_labels, mem_Z.astype(np.float32),
                                      1.0 + 1e-9, beta)
        expected = full_matrix_memory_pairs(Z, labels, mem_Z, mem_labels, beta)
        assert_same_memory_pairs(got, expected)
        if share:
            assert dtypes == [np.dtype(np.float32)] * 2
        else:
            assert dtypes == [np.dtype(np.float32)] + [np.dtype(np.float64)] * 2
        assert np.count_nonzero(expected[2][0] < 16) > n * 16 // 5
        assert sum(dotted) >= 4


class TestMemoryRoutes:
    """Both precisions decide the same pairs, and value and gradient come
    from the decided sets, so a step has the same bytes on either route."""

    @pytest.mark.parametrize("case", ["random", "at_margin", "low_beta", "same_label"])
    def test_forced_routes_give_identical_bytes(self, case, monkeypatch):
        # 64 anchors against 2,000 memory rows at d 128: two blocks. In
        # "at_margin" every memory row lies within three float32 slacks of
        # the margin against an anchor, a fifth of them on it to rounding,
        # so both precisions leave pairs to row dots.
        rng = np.random.default_rng(41)
        n, m, d = 64, 2_000, 128
        Z = unit_rows(rng, n, d)
        labels = np.arange(n) % 16
        mem_Z = unit_rows(rng, m, d)
        mem_labels = rng.integers(16, 80, size=m)
        beta = 0.5
        if case == "at_margin":
            width = (2 * d + 8) * 2.0**-24
            offsets = np.where(rng.random(m) < 0.2, 0.0, rng.uniform(-3, 3, size=m))
            mem_Z = rows_at_similarity(rng, Z[rng.integers(0, n, size=m)],
                                       beta + offsets * width)
        elif case == "low_beta":
            beta = 0.1
        elif case == "same_label":
            mem_labels = rng.integers(0, 32, size=m)
        # Hinge pairs in the first block, so a share of 0 leaves float32 tiles.
        mem_Z[:20] = Z[:20] + 0.1 * unit_rows(rng, 20, d)
        mem_Z[:20] /= np.linalg.norm(mem_Z[:20], axis=1, keepdims=True)
        assert n * m > objective._BLOCK_VALUES
        bank = MemoryBank(capacity=m, dim=d)
        bank.enqueue(batch(mem_Z, mem_labels))
        dtypes = tile_dtypes(monkeypatch)
        outs = []
        for share in (1.0, 0.0):
            monkeypatch.setattr(_screen, "_PER_PAIR_SHARE", share)
            dtypes.clear()
            outs.append(contrastive_loss(batch(Z, labels), bank.view(), beta))
            # A share of 0 stops at the first float32 tile.
            assert dtypes[0] == np.float32
            assert set(dtypes[1:]) == {np.dtype(np.float32 if share else np.float64)}
        a, b = outs
        terms = [(o.value, o.term_breakdown.positive, o.term_breakdown.negative) for o in outs]
        assert np.array(terms[0]).tobytes() == np.array(terms[1]).tobytes()
        assert a.grad.tobytes() == b.grad.tobytes()
        assert a.term_breakdown.negative > 0

    def test_hinge_sum_on_the_margin_is_within_its_rounding(self):
        # 64 copies of one anchor and the last 125 memory rows on the margin
        # against it, to rounding: of their 8,000 pairs about half are
        # active, each adding about 1e-16. Summed through the products the
        # hinge carries an absolute error, not a relative one; it stays
        # within the row dots' own rounding bound, n_act d 2**-53.
        rng = np.random.default_rng(12)
        n, m, d = 64, 16_000, 128
        Z = np.repeat(unit_rows(rng, 1, d), n, axis=0)
        labels = np.arange(n)
        mem_Z = unit_rows(rng, m, d)
        mem_Z[-125:] = rows_at_similarity(rng, Z[np.zeros(125, dtype=np.int64)],
                                          np.full(125, 0.9))
        mem_labels = n + np.arange(m)
        out = contrastive_loss(batch(Z, labels), MemoryView(mem_Z, mem_labels), 0.9)
        alone = contrastive_loss(batch(Z, labels), None, 0.9)
        _, negative, _ = per_pair_memory_reference(Z, labels, 0.9, mem_Z, mem_labels)
        active = full_matrix_memory_pairs(Z, labels, mem_Z, mem_labels, 0.9)[2][0].size
        assert 1_000 < active < 7_000
        error = out.term_breakdown.negative - alone.term_breakdown.negative - negative
        assert abs(error) <= active * d * 2.0**-53 / n


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

    def test_hub_neighbour_scatter_matches_row_scatter_bitwise(self):
        # Rows on a cap of angle 0.3 around a hub row, in directions far
        # apart at d 64: the hub is most rows' nearest neighbour, so its
        # gradient row sums many contributions, in row order as a row-wise
        # ``add.at`` adds them.
        rng = np.random.default_rng(304)
        n, d = 48, 64
        hub = unit_rows(rng, 1, d)
        away = rng.standard_normal((n, d))
        away -= (away @ hub.T) * hub
        away /= np.linalg.norm(away, axis=1, keepdims=True)
        Z = np.cos(0.3) * hub + np.sin(0.3) * away
        Z[0] = hub[0]
        out = koleo_loss(batch(Z, np.zeros(n, dtype=np.int64)))
        sq_norms = np.sum(Z * Z, axis=1)
        d2 = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (Z @ Z.T)
        np.maximum(d2, 0.0, out=d2)
        np.fill_diagonal(d2, np.inf)
        nn = np.argmin(d2, axis=1)
        assert np.count_nonzero(nn == 0) > n // 2
        rho = np.sqrt(d2[np.arange(n), nn])
        scaled = (Z - Z[nn]) / (n * rho * rho)[:, None]
        grad = -scaled
        np.add.at(grad, nn, scaled)
        assert out.grad.tobytes() == grad.tobytes()

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
