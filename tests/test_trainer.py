"""Encoder head, optimizer, samplers, synthetic data, and the training loop.

The optimizer check reimplements the decoupled-weight-decay update equations
step by step as a reference. Head gradients are checked by central finite
differences over every parameter entry.
"""

import collections
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spherekit import (
    ConfigError,
    DegenerateBatchError,
    EncoderHead,
    HeadSpec,
    LabeledFeatureDataset,
    MomentumTrack,
    NumericalError,
    OptimizerState,
    RunConfig,
    SamplingError,
    SimilarityHistogram,
    SyntheticSpec,
    TupleSample,
    adamw_step,
    build_synthetic_dataset,
    forward,
    histogram_overlap,
    make_synthetic,
    make_synthetic_grids,
    mine_hard_negatives,
    normalize_rows,
    pool,
    sample_category_batch,
    split_holdout,
    train_run,
)
from spherekit import _screen, trainer
from spherekit.config import PoolingSpec
from spherekit.errors import ShapeError

from conftest import (
    budget_for_rows,
    central_diff,
    mining_routes,
    mining_tiles,
    quantized_unit_rows,
    rel_err,
    relabelled,
    unit_rows,
)


def tiny_config(**overrides):
    base = dict(
        mode="category",
        iterations=4,
        seed=11,
        head=HeadSpec(out_dim=4, hidden=None),
        beta=0.5,
        lam=0.7,
        lr=1e-2,
        weight_decay=1e-4,
        batch_size=6,
        instances_per_class=2,
        memory_capacity_ratio=1.0,
        momentum_m=None,
        synthetic=None,
    )
    base.update(overrides)
    return RunConfig(**base)


def tiny_dataset(seed=5, num_classes=4, per_class=6, dim=5, sigma=0.25):
    return make_synthetic(
        SyntheticSpec(
            num_classes=num_classes,
            per_class=per_class,
            feature_dim=dim,
            noise_sigma=sigma,
            seed=seed,
        )
    )


class TestEncoderHead:
    def test_forward_shapes_and_normalization(self):
        rng = np.random.default_rng(30)
        head = EncoderHead.initialize(rng, 6, 4, hidden=5)
        X = rng.standard_normal((7, 6))
        E, Z = forward(head, X)
        assert E.shape == (7, 4)
        assert_array_equal(Z, normalize_rows(E))

    @pytest.mark.parametrize("hidden", [None, 5])
    def test_apply_is_its_layers_byte_for_byte(self, hidden):
        rng = np.random.default_rng(36)
        head = EncoderHead.initialize(rng, 6, 4, hidden=hidden)
        for _, b in head.layers:
            b[:] = rng.standard_normal(b.shape)
        X = rng.standard_normal((9, 6))
        expected = X
        for i, (W, b) in enumerate(head.layers):
            expected = expected @ W.T + b
            if i < len(head.layers) - 1:
                expected = np.tanh(expected)
        assert head.apply(X)[0].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("hidden", [None, 5])
    def test_backward_matches_finite_differences(self, hidden):
        rng = np.random.default_rng(31)
        head = EncoderHead.initialize(rng, 4, 3, hidden=hidden)
        X = rng.standard_normal((6, 4))
        G = rng.standard_normal((6, 3))
        _, cache = head.apply(X)
        grads = head.backward(cache, G)
        base = head.params()
        assert sorted(grads) == sorted(base)
        for key in base:
            def scalar(value, key=key):
                trial = {k: (value if k == key else v) for k, v in base.items()}
                E_trial, _ = EncoderHead.from_params(trial).apply(X)
                return float(np.sum(E_trial * G))

            numeric = central_diff(scalar, base[key])
            assert rel_err(numeric, grads[key]) < 1e-6

    def test_from_params_shares_the_arrays_and_matches_a_copy(self):
        rng = np.random.default_rng(33)
        track = MomentumTrack(EncoderHead.initialize(rng, 4, 3, hidden=5).params(), 0.9)
        X = rng.standard_normal((6, 4))
        shared = EncoderHead.from_params(track.shadow)
        copied = EncoderHead.from_params({k: v.copy() for k, v in track.shadow.items()})
        for key, value in shared.params().items():
            assert np.shares_memory(value, track.shadow[key])
        assert shared.apply(X)[0].tobytes() == copied.apply(X)[0].tobytes()

    def test_params_are_live_references(self):
        rng = np.random.default_rng(32)
        head = EncoderHead.initialize(rng, 4, 3)
        head.params()["w0"][0, 0] = 123.0
        assert head.params()["w0"][0, 0] == 123.0

    def test_dict_round_trip_is_bitwise(self):
        rng = np.random.default_rng(34)
        head = EncoderHead.initialize(rng, 5, 3, hidden=4)
        back = EncoderHead.from_dict(head.to_dict())
        for key, value in head.params().items():
            assert_array_equal(back.params()[key], value)

    def test_dims(self):
        rng = np.random.default_rng(35)
        head = EncoderHead.initialize(rng, 9, 4, hidden=6)
        assert head.in_dim == 9
        assert head.out_dim == 4


def adamw_reference(params, grad_seq, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
    """Straight transcription of the update equations."""
    p = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(val) for k, val in params.items()}
    t = 0
    for grads in grad_seq:
        t += 1
        for key in p:
            g = grads[key]
            m[key] = beta1 * m[key] + (1.0 - beta1) * g
            v[key] = beta2 * v[key] + (1.0 - beta2) * g * g
            m_hat = m[key] / (1.0 - beta1**t)
            v_hat = v[key] / (1.0 - beta2**t)
            p[key] -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p[key])
    return p


class TestAdamW:
    def test_single_step_formula(self):
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([0.5, 0.25])}
        state = OptimizerState.initialize(params, lr=0.1, weight_decay=0.1)
        adamw_step(params, grads, state)
        expected = adamw_reference(
            {"w": np.array([1.0, -2.0])}, [grads], lr=0.1, weight_decay=0.1
        )
        assert state.step == 1
        assert_allclose(params["w"], expected["w"], rtol=1e-14, atol=0)

    def test_many_steps_match_reference(self):
        rng = np.random.default_rng(36)
        start = {"w": rng.standard_normal((3, 2)), "b": rng.standard_normal(2)}
        grad_seq = [
            {"w": rng.standard_normal((3, 2)), "b": rng.standard_normal(2)}
            for _ in range(25)
        ]
        params = {k: v.copy() for k, v in start.items()}
        state = OptimizerState.initialize(params, lr=3e-3, weight_decay=1e-2)
        for grads in grad_seq:
            adamw_step(params, grads, state)
        expected = adamw_reference(start, grad_seq, lr=3e-3, weight_decay=1e-2)
        assert state.step == 25
        for key in params:
            assert_allclose(params[key], expected[key], rtol=1e-12, atol=1e-14)

    def test_decay_is_decoupled(self):
        # zero gradient still shrinks the parameter by lr * wd * p
        params = {"w": np.array([2.0])}
        state = OptimizerState.initialize(params, lr=0.5, weight_decay=0.1)
        adamw_step(params, {"w": np.array([0.0])}, state)
        assert_allclose(params["w"], [2.0 - 0.5 * 0.1 * 2.0], rtol=1e-15)

    def test_updates_in_place(self):
        params = {"w": np.array([1.0])}
        ref = params["w"]
        state = OptimizerState.initialize(params, lr=0.1, weight_decay=0.0)
        adamw_step(params, {"w": np.array([1.0])}, state)
        assert ref is params["w"]
        assert ref[0] != 1.0

    def test_bitwise_equal_to_the_temporary_building_expression(self):
        def expression_step(params, grads, state):
            # The update written as one expression with fresh temporaries.
            state.step += 1
            t = state.step
            bc1 = 1.0 - state.beta1**t
            bc2 = 1.0 - state.beta2**t
            for key in params:
                p, g, m, v = params[key], grads[key], state.m[key], state.v[key]
                m *= state.beta1
                m += (1.0 - state.beta1) * g
                v *= state.beta2
                v += (1.0 - state.beta2) * (g * g)
                m_hat = m / bc1
                v_hat = v / bc2
                p -= state.lr * (m_hat / (np.sqrt(v_hat) + state.eps) + state.weight_decay * p)

        rng = np.random.default_rng(42)
        heads = [EncoderHead.initialize(rng, 7, 3, hidden=5) for _ in range(2)]
        ours = [h.params() for h in heads]
        ref = [{k: v.copy() for k, v in p.items()} for p in ours]
        our_states = [OptimizerState.initialize(p, lr=3e-2, weight_decay=5e-2) for p in ours]
        ref_states = [OptimizerState.initialize(p, lr=3e-2, weight_decay=5e-2) for p in ref]
        for _ in range(25):
            for i in (0, 1):  # two states step interleaved through their own scratch
                grads = {k: rng.standard_normal(v.shape) for k, v in ours[i].items()}
                adamw_step(ours[i], grads, our_states[i])
                expression_step(ref[i], grads, ref_states[i])
        for i in (0, 1):
            assert our_states[i].step == ref_states[i].step == 25
            for key in ours[i]:
                assert ours[i][key].tobytes() == ref[i][key].tobytes()
                assert our_states[i].m[key].tobytes() == ref_states[i].m[key].tobytes()
                assert our_states[i].v[key].tobytes() == ref_states[i].v[key].tobytes()

    def test_step_allocates_no_parameter_sized_array(self):
        rng = np.random.default_rng(43)
        params = EncoderHead.initialize(rng, 384, 128, hidden=64).params()
        grads = {k: rng.standard_normal(v.shape) for k, v in params.items()}
        state = OptimizerState.initialize(params, lr=1e-3, weight_decay=1e-4)
        adamw_step(params, grads, state)
        tracemalloc.start()
        try:
            adamw_step(params, grads, state)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # A temporary of the smallest weight matrix alone would be 64 KiB.
        assert peak < params["w1"].nbytes


class TestCategorySampler:
    def test_batch_structure(self):
        ds = tiny_dataset()
        rng = np.random.default_rng(37)
        idx = sample_category_batch(ds, batch_size=8, instances_per_class=4, rng=rng)
        assert idx.shape == (8,) and idx.dtype == np.int64
        classes, counts = np.unique(ds.labels[idx], return_counts=True)
        assert len(classes) == 2
        assert_array_equal(counts, [4, 4])
        assert len(np.unique(idx)) == 8  # no replacement

    def test_deterministic_given_rng(self):
        ds = tiny_dataset()
        a = sample_category_batch(ds, 8, 4, np.random.default_rng(123))
        b = sample_category_batch(ds, 8, 4, np.random.default_rng(123))
        assert_array_equal(a, b)

    def test_all_classes_reachable(self):
        ds = tiny_dataset(num_classes=5)
        rng = np.random.default_rng(38)
        seen = set()
        for _ in range(40):
            idx = sample_category_batch(ds, 4, 2, rng)
            seen.update(int(c) for c in np.unique(ds.labels[idx]))
        assert seen == set(range(5))

    def test_indivisible_batch_raises(self):
        ds = tiny_dataset()
        with pytest.raises(SamplingError):
            sample_category_batch(ds, 5, 2, np.random.default_rng(0))

    def test_not_enough_qualifying_classes_raises(self):
        feats = np.arange(12, dtype=np.float64).reshape(6, 2)
        ds = LabeledFeatureDataset(feats, np.array([0, 0, 1, 1, 1, 1]))
        with pytest.raises(SamplingError):
            sample_category_batch(ds, 8, 4, np.random.default_rng(0))

    def test_class_indices_built_once_on_read_only_labels(self):
        rng = np.random.default_rng(39)
        labels = rng.permutation(np.repeat([7, -3, 0, 12, -8], [5, 1, 4, 3, 6]))
        ds = LabeledFeatureDataset(rng.standard_normal((labels.size, 3)), labels)
        by_class = ds.class_indices()
        assert list(by_class) == [-8, -3, 0, 7, 12]
        for label, rows in by_class.items():
            assert_array_equal(rows, np.flatnonzero(labels == label))
        assert ds.class_indices() is by_class
        with pytest.raises(ValueError):
            ds.labels[0] = 99
        labels[:] = 0  # the caller's array is not the dataset's
        assert list(ds.class_indices()) == [-8, -3, 0, 7, 12]

    def test_draws_match_per_step_class_scan(self):
        # Reference: rebuild the class map and eligible list every call.
        rng = np.random.default_rng(40)
        labels = rng.permutation(np.repeat(np.arange(9) * 3 - 5, [2, 5, 4, 1, 6, 3, 4, 2, 5]))
        ds = LabeledFeatureDataset(rng.standard_normal((labels.size, 3)), labels)
        ours, ref = np.random.default_rng(41), np.random.default_rng(41)
        for _ in range(20):
            idx = sample_category_batch(ds, 9, 3, ours)
            eligible = [c for c in np.unique(labels) if np.sum(labels == c) >= 3]
            chosen = ref.choice(np.asarray(eligible, dtype=np.int64), size=3, replace=False)
            expected = np.concatenate(
                [ref.choice(np.flatnonzero(labels == c), size=3, replace=False) for c in chosen]
            )
            assert_array_equal(idx, expected)


def sort_oracle(anchors, pool_Z, labels, exclude_labels, k, row_dots=False):
    """Per anchor: sort every other-label pool entry by (-score, index). The
    scores are a BLAS product's, or with ``row_dots`` one row dot each, the
    scores mining ranks by."""
    out = []
    for anchor, exclude in zip(anchors, exclude_labels):
        valid = [i for i in range(len(labels)) if labels[i] != exclude]
        if row_dots:
            sims = np.einsum("ij,ij->i", np.tile(anchor, (len(pool_Z), 1)), pool_Z)
        else:
            sims = pool_Z @ anchor
        out.append(sorted(valid, key=lambda i: (-sims[i], i))[:k])
    return np.asarray(out, dtype=np.int64).reshape(len(anchors), k)


class TestHardNegativeMining:
    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(39)
        pool_Z = normalize_rows(rng.standard_normal((20, 5)))
        labels = rng.integers(0, 4, size=20)
        anchor = normalize_rows(rng.standard_normal((1, 5)))[0]
        got = mine_hard_negatives(anchor[None, :], pool_Z, labels, exclude_labels=[2], k=5)
        assert got.shape == (1, 5)
        got = got[0]
        sims = pool_Z @ anchor
        valid = [i for i in range(20) if labels[i] != 2]
        expected = sorted(valid, key=lambda i: (-sims[i], i))[:5]
        assert_array_equal(got, expected)
        assert not np.any(labels[got] == 2)

    def test_ties_break_by_position(self):
        row = np.array([1.0, 0.0])
        pool_Z = np.stack([row, row, row, -row])
        labels = np.array([0, 1, 1, 1])
        got = mine_hard_negatives(row[None, :], pool_Z, labels, exclude_labels=[0], k=2)
        assert_array_equal(got, [[1, 2]])

    def test_insufficient_pool_raises(self):
        Z = np.eye(4)
        with pytest.raises(SamplingError):
            mine_hard_negatives(Z[:1], Z, np.array([0, 1, 1, 2]), exclude_labels=[0], k=5)

    def test_anchors_exclude_their_own_labels(self):
        # one call, anchors excluding different labels; the first three
        # anchors are equal, so only their label masks tell their rows apart
        e0, e1 = np.eye(2)
        pool_Z = np.stack([e0, e0, e0, e0, e1, -e0])
        labels = np.array([0, 1, 2, 0, 1, 2])
        anchors = np.stack([e0, e0, e0, e1])
        got = mine_hard_negatives(anchors, pool_Z, labels, exclude_labels=[0, 1, 2, 0], k=3)
        assert_array_equal(got, [[1, 2, 4], [0, 2, 3], [0, 1, 3], [4, 1, 2]])
        assert_array_equal(got, sort_oracle(anchors, pool_Z, labels, [0, 1, 2, 0], 3))

    def test_short_anchor_is_named(self):
        Z = np.eye(4)
        labels = np.array([0, 1, 1, 2])
        with pytest.raises(SamplingError, match=r"2 candidates outside label 1, need 3"):
            mine_hard_negatives(Z[:3], Z, labels, exclude_labels=[0, 2, 1], k=3)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        anchors=st.integers(1, 12),
        n=st.integers(8, 40),
        d=st.sampled_from([4, 8, 16]),
        directions=st.integers(1, 6),
        num_labels=st.integers(2, 5),
        k=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_anchor_sort_oracle(self, anchors, n, d, directions, num_labels,
                                            k, seed):
        # Few quantized directions: scores are exact and full of ties; about
        # four in five examples have a tie straddling some anchor's k-th place,
        # and about one in ten has an anchor short of candidates.
        rng = np.random.default_rng(seed)
        both = quantized_unit_rows(rng, anchors + n, d, directions)
        A, pool_Z = both[:anchors], both[anchors:]
        labels = rng.integers(0, num_labels, size=n)
        exclude = rng.integers(0, num_labels, size=anchors)
        short = [c for c in exclude if np.count_nonzero(labels != c) < k]
        for rows in (2, 3, anchors - 1, None):
            if rows is not None and rows < 2:
                continue
            with budget_for_rows(trainer, "MINING_BLOCK_BYTES", rows, n):
                if short:
                    with pytest.raises(SamplingError, match=f"outside label {short[0]}, "):
                        mine_hard_negatives(A, pool_Z, labels, exclude, k)
                    continue
                got = mine_hard_negatives(A, pool_Z, labels, exclude, k)
            assert got.dtype == np.int64
            assert_array_equal(got, sort_oracle(A, pool_Z, labels, exclude, k))


class TestScreenedMining:
    """Routes of the screen: which anchors it screened in float32 tiles and
    which fell back to float64 tiles, against the per-anchor sort."""

    def draw(self, rng, anchors, n, d=16, classes=60):
        A, pool_Z = unit_rows(rng, anchors, d), unit_rows(rng, n, d)
        return A, pool_Z, rng.integers(0, classes, size=n), rng.integers(0, classes, size=anchors)

    def test_unit_rows_take_the_screen(self, monkeypatch):
        rng = np.random.default_rng(120)
        A, pool_Z, labels, exclude = self.draw(rng, 150, 1500)
        routes = mining_routes(monkeypatch)
        with mining_tiles(64, 256):  # 3 anchor spans x 6 pool spans
            got = mine_hard_negatives(A, pool_Z, labels, exclude)
        assert routes == {"screened": 150, "fallback": 0}
        assert_array_equal(got, sort_oracle(A, pool_Z, labels, exclude, 5))

    def test_default_tiles_take_the_screen(self, monkeypatch):
        rng = np.random.default_rng(121)
        A, pool_Z, labels, exclude = self.draw(rng, 200, 2500, d=32)
        routes = mining_routes(monkeypatch)
        got = mine_hard_negatives(A, pool_Z, labels, exclude)
        assert routes == {"screened": 200, "fallback": 0}
        assert_array_equal(got, sort_oracle(A, pool_Z, labels, exclude, 5))

    def test_quantized_ties_fall_back(self, monkeypatch):
        # Six directions: every anchor's k-th score ties with about a sixth
        # of the pool, far more than the per-pair share.
        rng = np.random.default_rng(122)
        both = quantized_unit_rows(rng, 80 + 1200, 16, 6)
        A, pool_Z = both[:80], both[80:]
        labels, exclude = rng.integers(0, 40, size=1200), rng.integers(0, 40, size=80)
        routes = mining_routes(monkeypatch)
        with mining_tiles(32, 256):
            got = mine_hard_negatives(A, pool_Z, labels, exclude)
        assert routes == {"screened": 0, "fallback": 80}
        assert_array_equal(got, sort_oracle(A, pool_Z, labels, exclude, 5))

    def test_a_span_computes_no_tile_after_it_falls_back(self, monkeypatch):
        # The inputs of test_quantized_ties_fall_back: each of the three spans
        # of anchors falls back on its first tile of 256 pool rows and asks
        # for none of its other four.
        rng = np.random.default_rng(122)
        both = quantized_unit_rows(rng, 80 + 1200, 16, 6)
        A, pool_Z = both[:80], both[80:]
        labels, exclude = rng.integers(0, 40, size=1200), rng.integers(0, 40, size=80)
        routes = mining_routes(monkeypatch)
        with mining_tiles(32, 256):
            got = mine_hard_negatives(A, pool_Z, labels, exclude)
        assert routes == {"screened": 0, "fallback": 80}
        assert routes.tiles["float32"] == {span: {"rows": 1}
                                           for span in [(0, 32), (32, 64), (64, 80)]}
        assert_array_equal(got, sort_oracle(A, pool_Z, labels, exclude, 5))

    def test_a_span_with_an_unproven_bound_computes_no_tile(self, monkeypatch):
        rng = np.random.default_rng(123)
        A, pool_Z, labels, exclude = self.draw(rng, 96, 1000)
        A[70] *= 2.0**61
        routes = mining_routes(monkeypatch)
        with mining_tiles(32, 512):
            got = mine_hard_negatives(A, pool_Z, labels, exclude)
        assert routes.tiles["float32"] == {(0, 32): {"rows": 2}, (32, 64): {"rows": 2}}
        assert_array_equal(got, sort_oracle(A, pool_Z, labels, exclude, 5))

    @pytest.mark.parametrize("name", ["anchor", "pool"])
    def test_non_finite_row_raises_before_any_tile(self, monkeypatch, name):
        rng = np.random.default_rng(128)
        A, pool_Z, labels, exclude = self.draw(rng, 4, 1000)
        if name == "anchor":
            A[2, 5] = np.inf
        else:
            pool_Z[3, 0] = np.nan
        row = 2 if name == "anchor" else 3
        routes = mining_routes(monkeypatch)
        with pytest.raises(NumericalError, match=f"^{name} row {row} contains non-finite"):
            mine_hard_negatives(A, pool_Z, labels, exclude)
        assert routes.tiles == {"float32": {}, "float64": {}}

    @pytest.mark.parametrize("rows", ["unit", "huge", "collapsed"])
    def test_both_routes_pick_the_same_negatives(self, monkeypatch, rows):
        # A share of 1 screens every span in float32 tiles (but the one with
        # an unproven bound), a share of 0 every span in float64 tiles.
        # Collapsed rows, 1e-16 apart, score within a few ULPs of each other,
        # where a BLAS product and the row dots order them differently: only
        # a float64 slack that covers both evaluations keeps all of a top k.
        rng = np.random.default_rng(129)
        A, pool_Z, labels, exclude = self.draw(rng, 150, 1500)
        huge = rows == "huge"
        if huge:
            A[70] *= 2.0**61
        elif rows == "collapsed":
            both = unit_rows(rng, 1, 128) + 1e-16 * rng.standard_normal((150 + 1500, 128))
            both /= np.linalg.norm(both, axis=1, keepdims=True)
            A, pool_Z = both[:150], both[150:]
        routes = mining_routes(monkeypatch)
        with mining_tiles(64, 256):  # 3 anchor spans x 6 pool spans
            with mock.patch.object(_screen, "_PER_PAIR_SHARE", 1.0):
                screened = mine_hard_negatives(A, pool_Z, labels, exclude)
            assert routes == {"screened": 86 if huge else 150, "fallback": 64 if huge else 0}
            with mock.patch.object(_screen, "_PER_PAIR_SHARE", 0.0):
                fallback = mine_hard_negatives(A, pool_Z, labels, exclude)
        assert routes == {"screened": 86 if huge else 150, "fallback": 214 if huge else 150}
        assert_array_equal(screened, fallback)
        assert_array_equal(screened, sort_oracle(A, pool_Z, labels, exclude, 5, row_dots=True))

    @pytest.mark.parametrize("k", [0, -1, 2.0, True, "5"])
    def test_k_below_one_or_not_an_integer_raises(self, monkeypatch, k):
        rng = np.random.default_rng(127)
        A, pool_Z, labels, exclude = self.draw(rng, 4, 50)
        routes = mining_routes(monkeypatch)
        message = re.escape(f"k must be an integer of at least 1, got {k!r}")
        with pytest.raises(ShapeError, match=message):
            mine_hard_negatives(A, pool_Z, labels, exclude, k)
        assert routes.tiles == {"float32": {}, "float64": {}}

    @pytest.mark.parametrize("which", ["pool", "excluded"])
    @pytest.mark.parametrize("kind", ["nan", "float", "str"])
    def test_non_integer_labels_raise_before_any_tile(self, monkeypatch, which, kind):
        # NaN labels would read as 0 candidates outside label nan.
        rng = np.random.default_rng(128)
        A, pool_Z, labels, exclude = self.draw(rng, 4, 50)
        value = {"nan": np.nan, "float": 1.0, "str": "a"}[kind]
        if which == "pool":
            labels = np.full(labels.shape, value)
        else:
            exclude = np.full(exclude.shape, value)
        routes = mining_routes(monkeypatch)
        with pytest.raises(ShapeError, match=f"{which} labels must be integers"):
            mine_hard_negatives(A, pool_Z, labels, exclude)
        assert routes.tiles == {"float32": {}, "float64": {}}

    def test_empty_labels_of_any_dtype_are_accepted(self):
        rng = np.random.default_rng(129)
        A, pool_Z, labels, _ = self.draw(rng, 4, 50)
        got = mine_hard_negatives(A[:0], pool_Z, labels, np.array([]))
        assert got.shape == (0, 5) and got.dtype == np.int64

    @pytest.mark.parametrize("kind", ["negative", "2**62", "uint64", "sparse"])
    @pytest.mark.parametrize("distinct", [6, 256, 70_000])
    def test_labels_mine_as_their_dense_relabelling(self, kind, distinct):
        # Labels are compared as dense codes, uint8 for 6 distinct labels,
        # uint16 for 256 and uint32 for 70,000 (a pool of one row a label);
        # anchors exclude pool labels and labels the pool lacks. The picks
        # are those of labels 0, 1, ... equal where the given ones are.
        # Excluded labels are int64, so uint64 pool labels mix signedness.
        rng = np.random.default_rng(130)
        n = max(2000, distinct)
        A, pool_Z = unit_rows(rng, 40, 8), unit_rows(rng, n, 8)
        dense = rng.permutation(np.arange(n) % distinct)
        exclude = np.concatenate([dense[:30], distinct + np.arange(10)])
        both = relabelled(rng, np.concatenate([dense, exclude]), kind)
        labels, exclude_labels = both[:n], both[n:].astype(np.int64)
        codes = _screen._label_codes(labels, exclude_labels)
        dtype = {6: np.uint8, 256: np.uint16, 70_000: np.uint32}[distinct]
        assert [c.dtype for c in codes] == [dtype, dtype]
        got = mine_hard_negatives(A, pool_Z, labels, exclude_labels)
        assert_array_equal(got, mine_hard_negatives(A, pool_Z, dense, exclude))
        assert not np.any(labels[got] == exclude_labels[:, None])

    def test_huge_anchor_falls_back_with_its_span(self, monkeypatch):
        rng = np.random.default_rng(123)
        A, pool_Z, labels, exclude = self.draw(rng, 96, 1000)
        A[70] *= 2.0**61  # exact: every score of the row scales by a power of 2
        routes = mining_routes(monkeypatch)
        with mining_tiles(32, 512):
            got = mine_hard_negatives(A, pool_Z, labels, exclude)
        assert routes == {"screened": 64, "fallback": 32}
        assert_array_equal(got, sort_oracle(A, pool_Z, labels, exclude, 5))

    def test_small_pool_falls_back_whole(self, monkeypatch):
        # k of 640 pool rows is more than the share: no anchor can pass.
        rng = np.random.default_rng(124)
        A, pool_Z, labels, exclude = self.draw(rng, 40, 639)
        routes = mining_routes(monkeypatch)
        got = mine_hard_negatives(A, pool_Z, labels, exclude)
        assert routes == {"screened": 0, "fallback": 40}
        assert not routes.tiles["float32"]
        assert_array_equal(got, sort_oracle(A, pool_Z, labels, exclude, 5))

    def test_pool_narrower_than_a_tile_and_exactly_k_candidates(self, monkeypatch):
        rng = np.random.default_rng(125)
        A, pool_Z = unit_rows(rng, 12, 8), unit_rows(rng, 700, 8)
        labels = np.zeros(700, dtype=np.int64)
        labels[rng.choice(700, size=5, replace=False)] = [1, 2, 3, 4, 5]
        exclude = np.where(np.arange(12) % 2 == 0, 0, 1)  # label 0: exactly 5 left
        routes = mining_routes(monkeypatch)
        got = mine_hard_negatives(A, pool_Z, labels, exclude)
        assert routes == {"screened": 12, "fallback": 0}
        assert_array_equal(got, sort_oracle(A, pool_Z, labels, exclude, 5))
        assert_array_equal(np.sort(got[0]), np.flatnonzero(labels))

    def test_last_pool_span_narrower_than_k(self, monkeypatch):
        rng = np.random.default_rng(126)
        A, pool_Z, labels, exclude = self.draw(rng, 20, 4 * 256 + 3)
        routes = mining_routes(monkeypatch)
        with mining_tiles(20, 256):
            got = mine_hard_negatives(A, pool_Z, labels, exclude)
        assert routes == {"screened": 20, "fallback": 0}
        assert_array_equal(got, sort_oracle(A, pool_Z, labels, exclude, 5))

    @pytest.mark.parametrize("share", [1.0, 0.0])
    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        anchors=st.integers(1, 12),
        n=st.integers(8, 40),
        d=st.sampled_from([4, 8, 16]),
        directions=st.integers(1, 6),
        num_labels=st.integers(2, 5),
        k=st.integers(1, 6),
        tile=st.sampled_from([(1, 1), (4, 2), (3, 7), (5, 16)]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_screen_forced_on_ties_matches_sort_oracle(self, share, anchors, n, d, directions,
                                                       num_labels, k, tile, seed):
        # With a per-pair share of 1 no span falls back, and with 0 every span
        # does, so tie-heavy quantized rows, tiles narrower than k and anchors
        # short of candidates all go through the screen in either precision.
        rng = np.random.default_rng(seed)
        both = quantized_unit_rows(rng, anchors + n, d, directions)
        A, pool_Z = both[:anchors], both[anchors:]
        labels = rng.integers(0, num_labels, size=n)
        exclude = rng.integers(0, num_labels, size=anchors)
        short = [c for c in exclude if np.count_nonzero(labels != c) < k]
        with mock.patch.object(_screen, "_PER_PAIR_SHARE", share), mining_tiles(*tile):
            if short:
                with pytest.raises(SamplingError, match=f"outside label {short[0]}, "):
                    mine_hard_negatives(A, pool_Z, labels, exclude, k)
                return
            top = trainer._SpanScreen.top
            screened = collections.Counter()
            with mock.patch.object(trainer._SpanScreen, "top",
                                   lambda s, a, p: screened.update({s.dtype: a.shape[0]})
                                   or top(s, a, p)):
                got = mine_hard_negatives(A, pool_Z, labels, exclude, k)
        assert screened == {np.float32 if share else np.float64: anchors}
        assert_array_equal(got, sort_oracle(A, pool_Z, labels, exclude, k))


class TestSyntheticData:
    def test_shapes_and_determinism(self):
        spec = SyntheticSpec(num_classes=3, per_class=4, feature_dim=5, noise_sigma=0.1, seed=9)
        a = make_synthetic(spec)
        b = make_synthetic(spec)
        assert a.features.shape == (12, 5)
        assert_array_equal(np.bincount(a.labels), [4, 4, 4])
        assert_array_equal(a.features, b.features)
        assert np.all(np.isfinite(a.features))

    def test_classes_cluster_around_their_means(self):
        # with tiny noise, nearest-class-mean classifies perfectly
        spec = SyntheticSpec(num_classes=6, per_class=10, feature_dim=8, noise_sigma=0.02, seed=10)
        ds = make_synthetic(spec)
        means = np.stack([ds.features[ds.labels == c].mean(axis=0) for c in range(6)])
        assigned = np.argmin(
            np.linalg.norm(ds.features[:, None, :] - means[None], axis=2), axis=1
        )
        assert np.mean(assigned == ds.labels) >= 0.99

    def test_grids_pool_into_features(self):
        spec = SyntheticSpec(
            num_classes=2, per_class=3, feature_dim=4, noise_sigma=0.1, seed=11,
            tokens_per_image=5,
        )
        grids, labels = make_synthetic_grids(spec)
        assert len(grids) == 6
        assert grids[0].tokens.shape == (5, 4)
        ds = build_synthetic_dataset(spec, PoolingSpec(mode="avg"))
        for i, grid in enumerate(grids):
            assert_array_equal(ds.features[i], pool(grid, "avg"))
        assert_array_equal(ds.labels, labels)

    def test_flat_spec_matches_make_synthetic(self):
        spec = SyntheticSpec(num_classes=2, per_class=3, feature_dim=4, noise_sigma=0.1, seed=12)
        a = build_synthetic_dataset(spec)
        b = make_synthetic(spec)
        assert_array_equal(a.features, b.features)

    def test_features_are_the_two_temporary_formula_bit_for_bit(self):
        spec = SyntheticSpec(num_classes=7, per_class=5, feature_dim=6, noise_sigma=0.37, seed=13)
        rng = np.random.default_rng(spec.seed)
        means = normalize_rows(rng.standard_normal((7, 6)))
        noise = rng.standard_normal((35, 6))
        expected = np.repeat(means, 5, axis=0) + spec.noise_sigma * noise
        assert_array_equal(make_synthetic(spec).features, expected)

    def test_features_are_built_without_full_size_temporaries(self):
        spec = SyntheticSpec(num_classes=500, per_class=8, feature_dim=128, noise_sigma=0.3, seed=14)
        tracemalloc.start()
        try:
            ds = make_synthetic(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The noise, the repeated means and their sum, all alive at once,
        # would be about 3x the feature bytes.
        assert peak < 2 * ds.features.nbytes

    def test_split_holdout_takes_highest_labels(self):
        ds = tiny_dataset(num_classes=5)
        train, hold = split_holdout(ds, 2)
        assert set(np.unique(train.labels)) == {0, 1, 2}
        assert set(np.unique(hold.labels)) == {3, 4}
        assert len(train) + len(hold) == len(ds)

    @pytest.mark.parametrize("count", [-1, True, False, 2.5, 2.0, "2", None])
    def test_split_holdout_refuses_a_count_that_is_not_an_integer_of_at_least_0(self, count):
        # labels[-holdout_classes:] would hold out every class but the first
        # for -1, and one class for True.
        with pytest.raises(ConfigError, match=re.escape(f"got {count!r}")):
            split_holdout(tiny_dataset(num_classes=10), count)

    def test_split_holdout_accepts_numpy_integers(self):
        ds = tiny_dataset(num_classes=5)
        train, hold = split_holdout(ds, np.int64(2))
        assert set(np.unique(hold.labels)) == {3, 4}
        train, hold = split_holdout(ds, np.int64(0))
        assert train is ds and hold is None

    def test_split_holdout_mask_matches_per_label_set_lookup(self):
        rng = np.random.default_rng(44)
        labels = rng.permutation(np.repeat(np.array([9, -2, 0, 31, 5, 7]), [3, 4, 2, 5, 1, 3]))
        ds = LabeledFeatureDataset(np.arange(labels.size * 2.0).reshape(-1, 2), labels)
        train, hold = split_holdout(ds, 3)
        held = set(np.unique(labels)[-3:].tolist())
        mask = np.array([int(l) in held for l in labels])
        assert_array_equal(hold.features, ds.features[mask])
        assert_array_equal(hold.labels, labels[mask])
        assert_array_equal(train.features, ds.features[~mask])
        assert_array_equal(train.labels, labels[~mask])

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_split_holdout_slices_equal_the_mask_split(self, shuffled):
        rng = np.random.default_rng(45)
        labels = np.repeat(np.arange(6), 4)
        if shuffled:
            labels = rng.permutation(labels)
        ds = LabeledFeatureDataset(rng.standard_normal((24, 3)), labels)
        train, hold = split_holdout(ds, 2)
        mask = labels >= 4
        assert_array_equal(train.features, ds.features[~mask])
        assert_array_equal(train.labels, labels[~mask])
        assert_array_equal(hold.features, ds.features[mask])
        assert_array_equal(hold.labels, labels[mask])
        # Held-out rows that form the tail leave both sets views of one array.
        for part in (train, hold):
            assert (part.features.base is ds.features) == (not shuffled)

    def test_split_holdout_of_rows_by_class_copies_no_features(self):
        spec = SyntheticSpec(num_classes=200, per_class=10, feature_dim=64, noise_sigma=0.1,
                             seed=3, holdout_classes=20)
        ds = make_synthetic(spec)
        split_holdout(ds, spec.holdout_classes)  # modules numpy imports on first use
        tracemalloc.start()
        try:
            split_holdout(ds, spec.holdout_classes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The built features stay the one copy: the split adds its labels and
        # a finiteness mask of a byte per value (copies of both halves would
        # add the feature bytes again).
        assert peak < 0.25 * ds.features.nbytes

    def test_split_holdout_zero_keeps_everything(self):
        ds = tiny_dataset()
        train, hold = split_holdout(ds, 0)
        assert hold is None
        assert len(train) == len(ds)


class TestTupleSample:
    def test_indices_order(self):
        F = 4
        ts = TupleSample(
            np.ones(F), np.zeros(F), np.ones((5, F)),
            anchor_index=7, positive_index=3,
            negative_indices=np.array([9, 8, 6, 5, 4]),
        )
        assert_array_equal(ts.indices(), [7, 3, 9, 8, 6, 5, 4])

    def test_anchor_positive_must_differ(self):
        F = 4
        with pytest.raises(SamplingError):
            TupleSample(
                np.ones(F), np.zeros(F), np.ones((5, F)),
                anchor_index=1, positive_index=1,
                negative_indices=np.array([2, 3, 4, 5, 6]),
            )

    def test_duplicate_negatives_rejected(self):
        F = 4
        with pytest.raises(SamplingError):
            TupleSample(
                np.ones(F), np.zeros(F), np.ones((5, F)),
                anchor_index=0, positive_index=1,
                negative_indices=np.array([2, 2, 4, 5, 6]),
            )

    def test_exactly_five_negatives(self):
        F = 4
        with pytest.raises(ShapeError):
            TupleSample(
                np.ones(F), np.zeros(F), np.ones((4, F)),
                anchor_index=0, positive_index=1,
                negative_indices=np.array([2, 3, 4, 5]),
            )


class TestTrainRun:
    def test_category_trace_structure(self):
        ds = tiny_dataset()
        model, trace = train_run(tiny_config(iterations=5, gamma_every=2), dataset=ds)
        assert [r.step for r in trace.rows] == [0, 1, 2, 3, 4]
        assert all(np.isfinite(r.loss) for r in trace.rows)
        assert_array_equal(trace.losses, [r.loss for r in trace.rows])
        assert trace.gamma_steps == [0, 2, 4]
        assert len(trace.gamma_values) == 3
        for row in trace.rows:
            assert row.loss == (row.positive + row.negative) + 0.7 * row.regularizer

    def test_deterministic_with_same_seed(self):
        ds = tiny_dataset()
        m1, t1 = train_run(tiny_config(), dataset=ds)
        m2, t2 = train_run(tiny_config(), dataset=ds)
        for key, value in m1.head.params().items():
            assert_array_equal(m2.head.params()[key], value)
        assert t1.rows == t2.rows

    def test_different_seeds_differ(self):
        ds = tiny_dataset()
        m1, _ = train_run(tiny_config(seed=1), dataset=ds)
        m2, _ = train_run(tiny_config(seed=2), dataset=ds)
        assert any(
            not np.array_equal(m1.head.params()[k], m2.head.params()[k])
            for k in m1.head.params()
        )

    def test_zero_iterations_returns_initial_head(self):
        ds = tiny_dataset()
        config = tiny_config(iterations=0)
        model, trace = train_run(config, dataset=ds)
        assert trace.rows == []
        fresh = EncoderHead.initialize(
            np.random.default_rng(config.seed), ds.features.shape[1], 4, None
        )
        for key, value in fresh.params().items():
            assert_array_equal(model.head.params()[key], value)

    def test_momentum_track_provenance(self):
        ds = tiny_dataset()
        model, _ = train_run(tiny_config(momentum_m=0.9, iterations=6), dataset=ds)
        assert model.momentum is not None
        shadow = model.momentum.shadow
        online = model.head.params()
        assert any(not np.array_equal(shadow[k], online[k]) for k in online)

    def test_zero_momentum_shadow_equals_online(self):
        ds = tiny_dataset()
        model, _ = train_run(tiny_config(momentum_m=0.0, iterations=5), dataset=ds)
        for key, value in model.head.params().items():
            assert_array_equal(model.momentum.shadow[key], value)

    def test_duplicate_features_degenerate_entropy(self):
        v = np.array([1.0, 0.5])
        w = np.array([-0.5, 1.0])
        feats = np.stack([v, v, w, w])
        ds = LabeledFeatureDataset(feats, np.array([0, 0, 1, 1]))
        config = tiny_config(batch_size=4, instances_per_class=2, iterations=1)
        with pytest.raises(DegenerateBatchError, match=r"^step 0:") as exc_info:
            train_run(config, dataset=ds)
        assert exc_info.value.step == 0

    def test_lambda_zero_tolerates_duplicates(self):
        v = np.array([1.0, 0.5])
        w = np.array([-0.5, 1.0])
        ds = LabeledFeatureDataset(np.stack([v, v, w, w]), np.array([0, 0, 1, 1]))
        config = tiny_config(batch_size=4, instances_per_class=2, iterations=2, lam=0.0)
        model, trace = train_run(config, dataset=ds)
        assert len(trace.rows) == 2
        assert all(r.regularizer == 0.0 for r in trace.rows)

    def test_snapshots_every_n_steps(self):
        ds = tiny_dataset()
        _, trace = train_run(tiny_config(iterations=6, snapshot_every=2), dataset=ds)
        # a snapshot lands after every second step, tagged with that step's index
        assert [s.step for s in trace.snapshots] == [1, 3, 5]
        for snap in trace.snapshots:
            assert snap.components_for_90 >= 1
            assert 0.0 <= snap.overlap <= 1.0

    def test_snapshot_overlap_is_the_dense_histograms(self):
        # The last snapshot follows the last step, so it bins the pairs of
        # the head the run returns: its overlap is that of np.histogram over
        # the upper triangle of their full float64 product.
        ds = tiny_dataset(num_classes=20, per_class=10, dim=16)
        model, trace = train_run(
            tiny_config(iterations=6, snapshot_every=3, head=HeadSpec(out_dim=16, hidden=None)),
            dataset=ds,
        )
        Z = forward(model.head, ds.features)[1]
        iu = np.triu_indices(len(Z), k=1)
        scores = (Z @ Z.T)[iu]
        same = ds.labels[iu[0]] == ds.labels[iu[1]]
        edges = np.linspace(-1.0, 1.0, 51)
        open_edges = np.concatenate([[-np.inf], edges[1:-1], [np.inf]])
        dense = SimilarityHistogram(edges, np.histogram(scores[same], open_edges)[0],
                                    np.histogram(scores[~same], open_edges)[0])
        assert [s.step for s in trace.snapshots] == [2, 5]
        assert trace.snapshots[-1].overlap == histogram_overlap(dense)

    def test_synthetic_config_without_dataset(self):
        config = tiny_config(
            synthetic=SyntheticSpec(
                num_classes=4, per_class=6, feature_dim=5, noise_sigma=0.2, seed=3,
                holdout_classes=1,
            ),
            iterations=2,
        )
        model, trace = train_run(config)
        assert len(trace.rows) == 2
        assert model.head.in_dim == 5

    def test_no_source_raises(self):
        with pytest.raises(ConfigError):
            train_run(tiny_config(synthetic=None))

    def test_particular_mode_runs_and_is_deterministic(self):
        ds = tiny_dataset(num_classes=4, per_class=6, dim=5)
        config = tiny_config(
            mode="particular", iterations=2, particular_scale=0.005, batch_size=6
        )
        m1, t1 = train_run(config, dataset=ds)
        m2, t2 = train_run(config, dataset=ds)
        # 10 pairs per epoch in chunks of 5 tuples -> 2 batches per epoch
        assert len(t1.rows) == 4
        assert t1.rows == t2.rows
        for key, value in m1.head.params().items():
            assert_array_equal(m2.head.params()[key], value)

    @pytest.mark.parametrize("mode", ["category", "particular"])
    @pytest.mark.parametrize("momentum_m", [None, 0.9])
    @pytest.mark.parametrize("memory, applies_per_step", [(0.0, 1), (0.5, 2)])
    def test_head_applies_per_step(self, monkeypatch, mode, momentum_m, memory,
                                   applies_per_step):
        # Only a memory with capacity reads the post-step re-embed.
        calls = []
        original = EncoderHead.apply

        def counting_apply(self, X):
            calls.append(len(X))
            return original(self, X)

        monkeypatch.setattr(EncoderHead, "apply", counting_apply)
        ds = tiny_dataset()
        config = tiny_config(
            mode=mode, iterations=2, particular_scale=0.005, momentum_m=momentum_m,
            memory_capacity_ratio=memory,
        )
        _, trace = train_run(config, dataset=ds)
        # a particular epoch first embeds the whole dataset to mine negatives
        epochs = 2 if mode == "particular" else 0
        assert len(trace.rows) == (4 if mode == "particular" else 2)
        assert len(calls) == applies_per_step * len(trace.rows) + epochs

    def test_mean_gamma_property(self):
        ds = tiny_dataset()
        _, trace = train_run(tiny_config(iterations=4), dataset=ds)
        assert_allclose(
            trace.mean_gamma, np.mean(trace.gamma_values), rtol=1e-15, atol=0
        )
