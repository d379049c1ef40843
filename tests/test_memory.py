"""Ring-buffer memory and momentum shadow behavior.

The FIFO property tests track a collections.deque(maxlen=capacity) as an
independent reference while random batch sizes stream in.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from spherekit import LabeledEmbeddingBatch, MemoryBank, MemoryView, MomentumTrack
from spherekit.errors import NormalizationError, ShapeError

from conftest import unit_rows


def one_hot_batch(indices, d=8):
    Z = np.zeros((len(indices), d))
    for row, idx in enumerate(indices):
        Z[row, idx % d] = 1.0
    return LabeledEmbeddingBatch(Z, np.asarray(indices, dtype=np.int64))


class TestMemoryBank:
    def test_fifo_two_then_three(self):
        bank = MemoryBank(capacity=4, dim=8)
        bank.enqueue(one_hot_batch([0, 1]))
        bank.enqueue(one_hot_batch([2, 3, 4]))
        view = bank.view()
        assert len(view) == 4
        assert_array_equal(view.labels, [1, 2, 3, 4])
        expected = np.zeros((4, 8))
        for row, idx in enumerate([1, 2, 3, 4]):
            expected[row, idx] = 1.0
        assert_array_equal(view.descriptors, expected)

    def test_view_is_oldest_first_before_full(self):
        bank = MemoryBank(capacity=5, dim=8)
        bank.enqueue(one_hot_batch([3, 1]))
        view = bank.view()
        assert len(view) == 2
        assert_array_equal(view.labels, [3, 1])

    def test_view_is_read_only(self):
        bank = MemoryBank(capacity=3, dim=8)
        bank.enqueue(one_hot_batch([0, 1, 2]))
        view = bank.view()
        with pytest.raises(ValueError):
            view.descriptors[0, 0] = 99.0
        with pytest.raises(ValueError):
            view.labels[0] = 99
        # An unwrapped ring is shown in place, not copied.
        assert np.shares_memory(view.descriptors, bank.view().descriptors)
        assert np.shares_memory(view.labels, bank.view().labels)
        fresh = bank.view()
        assert fresh.descriptors[0, 0] == 1.0
        assert fresh.labels[0] == 0
        # A wrapped ring is shown in place too, oldest first and read-only.
        bank.enqueue(one_hot_batch([3, 4]))
        wrapped = bank.view()
        assert_array_equal(wrapped.labels, [2, 3, 4])
        with pytest.raises(ValueError):
            wrapped.descriptors[0, 0] = 99.0
        with pytest.raises(ValueError):
            wrapped.labels[0] = 99
        assert np.shares_memory(wrapped.descriptors, bank.view().descriptors)
        assert np.shares_memory(wrapped.labels, bank.view().labels)

    def test_only_the_bank_sets_the_screen_fields(self):
        # The loss trusts a view's float32 copy and norm bound, so a view
        # built by hand cannot pass them and gets them computed instead.
        rows = np.eye(3)
        with pytest.raises(TypeError):
            MemoryView(rows, np.arange(3), descriptors32=rows.astype(np.float32))
        with pytest.raises(TypeError):
            MemoryView(rows, np.arange(3), norm_bound=0.5)
        hand = MemoryView(rows, np.arange(3))
        assert hand.descriptors32 is None and hand.norm_bound is None
        bank = MemoryBank(capacity=3, dim=3)
        bank.enqueue(LabeledEmbeddingBatch(rows, np.arange(3)))
        assert bank.view().norm_bound >= 1.0

    def test_capacity_zero_is_noop(self):
        bank = MemoryBank(capacity=0, dim=8)
        bank.enqueue(one_hot_batch([0, 1]))
        assert len(bank.view()) == 0

    def test_batch_larger_than_capacity_keeps_tail(self):
        bank = MemoryBank(capacity=3, dim=8)
        bank.enqueue(one_hot_batch([0, 1, 2, 3, 4, 5, 6]))
        view = bank.view()
        assert_array_equal(view.labels, [4, 5, 6])

    def test_wraparound_order(self):
        bank = MemoryBank(capacity=4, dim=8)
        bank.enqueue(one_hot_batch([0, 1, 2]))
        bank.enqueue(one_hot_batch([3, 4, 5]))
        view = bank.view()
        assert_array_equal(view.labels, [2, 3, 4, 5])

    def test_random_stream_matches_deque(self):
        rng = np.random.default_rng(42)
        for capacity in (1, 3, 5, 8):
            bank = MemoryBank(capacity=capacity, dim=4)
            reference = deque(maxlen=capacity)
            next_label = 0
            for _ in range(30):
                n = int(rng.integers(1, 2 * capacity + 2))
                Z = unit_rows(rng, max(n, 2), 4)[:n]
                if n == 1:
                    # batches must have at least two rows; pad then trim
                    Z2 = unit_rows(rng, 2, 4)
                    Z = Z2
                    n = 2
                labels = np.arange(next_label, next_label + n)
                next_label += n
                bank.enqueue(LabeledEmbeddingBatch(Z, labels))
                for row, lab in zip(Z, labels):
                    reference.append((row.copy(), lab))
                view = bank.view()
                assert len(view) == len(reference)
                if len(reference):
                    ref_Z = np.stack([r for r, _ in reference])
                    ref_labels = np.array([l for _, l in reference])
                    assert_array_equal(view.descriptors, ref_Z)
                    assert_array_equal(view.labels, ref_labels)

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        capacity=st.integers(1, 9),
        d=st.sampled_from([3, 5, 17]),
        sizes=st.lists(st.integers(2, 20), min_size=1, max_size=10),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(capacity=4, d=5, sizes=[3, 6], seed=0)  # oversize batch at cursor 3
    @example(capacity=9, d=17, sizes=[4, 9, 2, 11], seed=1)  # full-size at cursor 4
    @example(capacity=1, d=3, sizes=[2, 3, 2], seed=2)
    def test_matches_deque_after_every_enqueue(self, capacity, d, sizes, seed):
        rng = np.random.default_rng(seed)
        bank = MemoryBank(capacity=capacity, dim=d)
        reference = deque(maxlen=capacity)
        next_label = 0
        for n in sizes:
            Z = unit_rows(rng, n, d)
            labels = np.arange(next_label, next_label + n)
            next_label += n
            bank.enqueue(LabeledEmbeddingBatch(Z, labels))
            reference.extend(zip(Z.copy(), labels))
            view = bank.view()
            assert len(bank) == len(view) == len(reference)
            assert_array_equal(view.descriptors, np.stack([r for r, _ in reference]))
            assert_array_equal(view.labels, [label for _, label in reference])
            assert not view.descriptors.flags.writeable
            assert not view.labels.flags.writeable
            assert np.shares_memory(view.descriptors, bank.view().descriptors)
            assert np.shares_memory(view.labels, bank.view().labels)
            assert_array_equal(view.descriptors32, view.descriptors.astype(np.float32))
            assert view.descriptors32.dtype == np.float32
            assert not view.descriptors32.flags.writeable
            assert np.shares_memory(view.descriptors32, bank.view().descriptors32)

    def test_stored_rows_are_copies(self):
        bank = MemoryBank(capacity=4, dim=8)
        Z = np.zeros((2, 8))
        Z[0, 0] = 1.0
        Z[1, 1] = 1.0
        bank.enqueue(LabeledEmbeddingBatch(Z, np.array([0, 1])))
        Z[0, 0] = -1.0
        assert bank.view().descriptors[0, 0] == 1.0

    def test_rejects_wrong_dim(self):
        bank = MemoryBank(capacity=4, dim=8)
        with pytest.raises(ShapeError):
            bank.enqueue(one_hot_batch([0, 1], d=5))

    def test_rejects_non_unit_rows(self):
        bank = MemoryBank(capacity=4, dim=4)
        Z = np.eye(4) * 2.0
        with pytest.raises(NormalizationError):
            bank.enqueue(LabeledEmbeddingBatch(Z, np.arange(4), validate=False))

    def test_rejects_negative_capacity(self):
        with pytest.raises(ShapeError):
            MemoryBank(capacity=-1, dim=4)


class TestMomentumTrack:
    def test_zero_momentum_copies_bitwise(self):
        rng = np.random.default_rng(50)
        params = {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)}
        track = MomentumTrack(params, m=0.0)
        online = {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4)}
        track.update(online)
        assert_array_equal(track.shadow["w"], online["w"])
        assert_array_equal(track.shadow["b"], online["b"])

    def test_ten_step_closed_form(self):
        rng = np.random.default_rng(51)
        start = {"w": rng.standard_normal((2, 3))}
        target = {"w": rng.standard_normal((2, 3))}
        m = 0.9
        track = MomentumTrack(start, m=m)
        for _ in range(10):
            track.update(target)
        expected = target["w"] + (m**10) * (start["w"] - target["w"])
        assert_allclose(track.shadow["w"], expected, rtol=1e-12, atol=1e-14)

    def test_shadow_starts_as_copy(self):
        params = {"w": np.ones((2, 2))}
        track = MomentumTrack(params, m=0.5)
        params["w"][0, 0] = -7.0
        assert track.shadow["w"][0, 0] == 1.0

    @pytest.mark.parametrize("m", [-0.1, 1.0, 1.5])
    def test_momentum_bounds(self, m):
        with pytest.raises(ValueError):
            MomentumTrack({"w": np.zeros(2)}, m=m)

    def test_key_mismatch_raises(self):
        track = MomentumTrack({"w": np.zeros(2)}, m=0.5)
        with pytest.raises(ShapeError):
            track.update({"v": np.zeros(2)})

    def test_shape_mismatch_raises(self):
        track = MomentumTrack({"w": np.zeros(2)}, m=0.5)
        with pytest.raises(ShapeError):
            track.update({"w": np.zeros(3)})
