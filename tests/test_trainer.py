"""Encoder head, optimizer, samplers, synthetic data, and the training loop.

The optimizer check reimplements the decoupled-weight-decay update equations
step by step as a reference. Head gradients are checked by central finite
differences over every parameter entry.
"""

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
    OptimizerState,
    RunConfig,
    SamplingError,
    SyntheticSpec,
    TupleSample,
    adamw_step,
    build_synthetic_dataset,
    forward,
    make_synthetic,
    make_synthetic_grids,
    mine_hard_negatives,
    normalize_rows,
    pool,
    sample_category_batch,
    split_holdout,
    train_run,
)
from spherekit.config import PoolingSpec
from spherekit.errors import ShapeError
from spherekit.trainer import check_tuple_rows

from conftest import central_diff, quantized_unit_rows, rel_err


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

    def test_params_are_live_references(self):
        rng = np.random.default_rng(32)
        head = EncoderHead.initialize(rng, 4, 3)
        head.params()["w0"][0, 0] = 123.0
        assert head.params()["w0"][0, 0] == 123.0

    def test_clone_is_independent(self):
        rng = np.random.default_rng(33)
        head = EncoderHead.initialize(rng, 4, 3)
        twin = head.clone()
        twin.params()["w0"][0, 0] = -55.0
        assert head.params()["w0"][0, 0] != -55.0

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


class TestCategorySampler:
    def test_batch_structure(self):
        ds = tiny_dataset()
        rng = np.random.default_rng(37)
        batch = sample_category_batch(ds, batch_size=8, instances_per_class=4, rng=rng)
        assert batch.features.shape == (8, ds.features.shape[1])
        assert_array_equal(batch.features, ds.features[batch.indices])
        assert_array_equal(batch.labels, ds.labels[batch.indices])
        classes, counts = np.unique(batch.labels, return_counts=True)
        assert len(classes) == 2
        assert_array_equal(counts, [4, 4])
        assert len(np.unique(batch.indices)) == 8  # no replacement

    def test_deterministic_given_rng(self):
        ds = tiny_dataset()
        a = sample_category_batch(ds, 8, 4, np.random.default_rng(123))
        b = sample_category_batch(ds, 8, 4, np.random.default_rng(123))
        assert_array_equal(a.indices, b.indices)

    def test_all_classes_reachable(self):
        ds = tiny_dataset(num_classes=5)
        rng = np.random.default_rng(38)
        seen = set()
        for _ in range(40):
            batch = sample_category_batch(ds, 4, 2, rng)
            seen.update(int(c) for c in np.unique(batch.labels))
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
            batch = sample_category_batch(ds, 9, 3, ours)
            eligible = [c for c in np.unique(labels) if np.sum(labels == c) >= 3]
            chosen = ref.choice(np.asarray(eligible, dtype=np.int64), size=3, replace=False)
            expected = np.concatenate(
                [ref.choice(np.flatnonzero(labels == c), size=3, replace=False) for c in chosen]
            )
            assert_array_equal(batch.indices, expected)


def sort_oracle(anchors, pool_Z, labels, exclude_labels, k):
    """Per anchor: sort every other-label pool entry by (-score, index)."""
    out = []
    for anchor, exclude in zip(anchors, exclude_labels):
        valid = [i for i in range(len(labels)) if labels[i] != exclude]
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
        for block_rows in (2, 3, anchors - 1, None):
            if block_rows is not None and block_rows < 2:
                continue
            if short:
                with pytest.raises(SamplingError, match=f"outside label {short[0]}, "):
                    mine_hard_negatives(A, pool_Z, labels, exclude, k, block_rows=block_rows)
                continue
            got = mine_hard_negatives(A, pool_Z, labels, exclude, k, block_rows=block_rows)
            assert got.dtype == np.int64
            assert_array_equal(got, sort_oracle(A, pool_Z, labels, exclude, k))


class TestTupleRows:
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])

    def test_valid_rows_pass(self):
        check_tuple_rows(np.array([[0, 1, 2, 4, 6], [3, 2, 0, 1, 5]]), self.labels)

    def test_anchor_equal_to_positive_raises(self):
        with pytest.raises(SamplingError, match="tuple 1: anchor and positive"):
            check_tuple_rows(np.array([[0, 1, 2, 4, 6], [3, 3, 0, 1, 5]]), self.labels)

    def test_repeated_negative_raises(self):
        with pytest.raises(SamplingError, match="tuple 0: negatives must be distinct"):
            check_tuple_rows(np.array([[0, 1, 4, 2, 4], [3, 2, 0, 1, 5]]), self.labels)

    def test_negative_with_anchor_label_raises(self):
        with pytest.raises(SamplingError, match="tuple 1: a negative carries the anchor's"):
            check_tuple_rows(np.array([[0, 1, 2, 4, 6], [3, 2, 0, 2, 5]]), self.labels)


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

    def test_split_holdout_takes_highest_labels(self):
        ds = tiny_dataset(num_classes=5)
        train, hold = split_holdout(ds, 2)
        assert set(np.unique(train.labels)) == {0, 1, 2}
        assert set(np.unique(hold.labels)) == {3, 4}
        assert len(train) + len(hold) == len(ds)

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
        shadow = model.encoder(use_momentum=True).params()
        online = model.head.params()
        assert any(not np.array_equal(shadow[k], online[k]) for k in online)

    def test_zero_momentum_shadow_equals_online(self):
        ds = tiny_dataset()
        model, _ = train_run(tiny_config(momentum_m=0.0, iterations=5), dataset=ds)
        for key, value in model.head.params().items():
            assert_array_equal(model.momentum.shadow[key], value)

    def test_no_momentum_encoder_raises(self):
        ds = tiny_dataset()
        model, _ = train_run(tiny_config(momentum_m=None), dataset=ds)
        assert model.momentum is None
        with pytest.raises(ConfigError):
            model.encoder(use_momentum=True)

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

    def test_mean_gamma_property(self):
        ds = tiny_dataset()
        _, trace = train_run(tiny_config(iterations=4), dataset=ds)
        assert_allclose(
            trace.mean_gamma, np.mean(trace.gamma_values), rtol=1e-15, atol=0
        )
