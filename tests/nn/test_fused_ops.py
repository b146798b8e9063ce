"""Tests for the fused hot-path autograd pieces of the training loop:

* :func:`repro.nn.ops.broadcast_to` / :func:`repro.nn.ops.tile` — the
  zero-copy replacements for the ``x * ones(shape)`` tiling idiom;
* :func:`repro.nn.ops.neighbor_scores` / :func:`repro.nn.ops.neighbor_mix`
  — the batched attention contractions of the propagation block;
* the segment-sum embedding scatter behind ``Tensor.__getitem__``'s
  backward (:func:`repro.nn.tensor._index_add`), including its dense
  bincount and sparse sort+reduceat strategies;
* the gradient-donation fast path (``_accumulate_exclusive``), pinned
  through aliasing-sensitive expression shapes like ``x + x``.
"""

import numpy as np
import pytest

from repro.nn import Tensor, ops
from repro.nn.gradcheck import check_gradients
from repro.nn.tensor import _index_add

RNG = np.random.default_rng(42)


def randt(*shape) -> Tensor:
    return Tensor(RNG.normal(size=shape), requires_grad=True)


class TestBroadcastTo:
    def test_forward_is_zero_copy_view(self):
        x = Tensor(RNG.normal(size=(3, 1, 4)))
        out = ops.broadcast_to(x, (2, 3, 5, 4))
        assert out.shape == (2, 3, 5, 4)
        assert out.data.base is x.data or out.data.base is x.data.base

    def test_matches_ones_multiply_bitwise(self):
        x = Tensor(RNG.normal(size=(4, 1)))
        via_ones = (x * np.ones((4, 6))).data
        via_broadcast = ops.broadcast_to(x, (4, 6)).data
        np.testing.assert_array_equal(via_broadcast, via_ones)

    def test_gradcheck(self):
        check_gradients(lambda t: ops.broadcast_to(t, (5, 3, 4)), [randt(3, 4)])
        check_gradients(lambda t: ops.broadcast_to(t, (2, 3, 6)), [randt(3, 1)])

    def test_backward_sums_repeats(self):
        x = randt(2, 1)
        ops.broadcast_to(x, (2, 5)).sum().backward()
        np.testing.assert_allclose(x.grad, [[5.0], [5.0]])


class TestTile:
    def test_matches_np_tile(self):
        x = Tensor(RNG.normal(size=(2, 3)))
        np.testing.assert_array_equal(
            ops.tile(x, (2, 2)).data, np.tile(x.data, (2, 2))
        )

    def test_gradcheck_non_unit_axes(self):
        # Repeats along existing non-unit axes — the case broadcast_to
        # cannot express.
        check_gradients(lambda t: ops.tile(t, (2, 3)), [randt(2, 2)])
        check_gradients(lambda t: ops.tile(t, 3), [randt(4)])

    def test_backward_counts_repeats(self):
        x = randt(3)
        ops.tile(x, 4).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0, 4.0, 4.0])


class TestNeighborContractions:
    def test_neighbor_scores_matches_mul_sum(self):
        rels, query = randt(5, 3, 4, 6), randt(5, 6)
        fused = ops.neighbor_scores(rels, query)
        loose = (rels * query.reshape(5, 1, 1, 6)).sum(axis=-1)
        np.testing.assert_allclose(fused.data, loose.data, atol=1e-12)

    def test_neighbor_mix_matches_mul_sum(self):
        weights, neighbors = randt(5, 3, 4), randt(5, 3, 4, 6)
        fused = ops.neighbor_mix(weights, neighbors)
        loose = (weights.reshape(5, 3, 4, 1) * neighbors).sum(axis=2)
        np.testing.assert_allclose(fused.data, loose.data, atol=1e-12)

    def test_neighbor_scores_gradcheck(self):
        check_gradients(
            lambda r, q: ops.neighbor_scores(r, q), [randt(3, 2, 4, 5), randt(3, 5)]
        )

    def test_neighbor_mix_gradcheck(self):
        check_gradients(
            lambda w, n: ops.neighbor_mix(w, n), [randt(3, 2, 4), randt(3, 2, 4, 5)]
        )


class TestSegmentSumScatter:
    """`_index_add` — the embedding scatter primitive."""

    def scatter(self, shape, key, grad):
        full = np.zeros(shape)
        _index_add(full, key, np.asarray(grad, dtype=np.float64))
        return full

    def test_repeated_indices_accumulate(self):
        key = np.array([2, 2, 0, 2])
        grad = np.ones((4, 3))
        out = self.scatter((4, 3), key, grad)
        np.testing.assert_allclose(out[2], [3.0, 3.0, 3.0])
        np.testing.assert_allclose(out[0], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(out[[1, 3]], 0.0)

    def test_empty_batch_is_noop(self):
        out = self.scatter((5, 2), np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
        np.testing.assert_array_equal(out, 0.0)

    def test_single_row(self):
        out = self.scatter((5, 2), np.array([3]), [[1.5, -2.0]])
        np.testing.assert_allclose(out[3], [1.5, -2.0])
        assert np.count_nonzero(out) == 2

    def test_negative_indices_wrap(self):
        out = self.scatter((4, 2), np.array([-1, -1]), np.ones((2, 2)))
        np.testing.assert_allclose(out[3], [2.0, 2.0])

    def test_dense_and_sparse_strategies_agree(self):
        # rows.size * 4 >= len(full) selects the bincount strategy; a
        # huge table with few rows selects sort+reduceat.  Same scatter
        # either way.
        rng = np.random.default_rng(0)
        key = rng.integers(0, 8, size=64)
        grad = rng.normal(size=(64, 3))
        dense = self.scatter((8, 3), key, grad)

        sparse = np.zeros((1024, 3))
        _index_add(sparse, key, grad)  # 64 * 4 < 1024 -> reduceat path
        np.testing.assert_allclose(dense, sparse[:8], atol=1e-12)
        np.testing.assert_array_equal(sparse[8:], 0.0)

    def test_multi_dim_key_and_grad(self):
        key = np.array([[0, 1], [1, 0]])
        grad = np.ones((2, 2, 3))
        out = self.scatter((3, 3), key, grad)
        np.testing.assert_allclose(out[0], [2.0, 2.0, 2.0])
        np.testing.assert_allclose(out[1], [2.0, 2.0, 2.0])

    def test_gather_backward_uses_scatter(self):
        table = Tensor(RNG.normal(size=(6, 4)), requires_grad=True)
        idx = np.array([1, 1, 5, 0, 1])
        table[idx].sum().backward()
        expected = np.zeros((6, 4))
        np.add.at(expected, idx, np.ones((5, 4)))
        np.testing.assert_allclose(table.grad, expected)

    def test_repeat_gathers_accumulate_across_calls(self):
        # Second gather scatters in place into the existing grad buffer
        # (the in-place fast path of __getitem__'s backward).
        table = Tensor(RNG.normal(size=(5, 2)), requires_grad=True)
        (table[np.array([0, 1])].sum() + table[np.array([1, 2])].sum()).backward()
        np.testing.assert_allclose(
            table.grad, [[1, 1], [2, 2], [1, 1], [0, 0], [0, 0]]
        )

    @staticmethod
    def assert_same_bits_as_add_at(key, grad, base):
        expected = base.copy()
        np.add.at(expected, key, grad)
        got = base.copy()
        _index_add(got, key, grad)
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("seed", range(12))
    def test_tuple_keys_match_add_at_bit_for_bit(self, seed):
        # One 1-D integer array among slices (the PI peer gather
        # ``x[:, peer_index, :]``) is scattered one position at a time,
        # in index order; repeated indices must land with the same bits
        # as np.add.at, into empty and already-filled destinations.
        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(1, 6, size=rng.integers(1, 4)))
        axis = int(rng.integers(0, len(shape)))
        index = rng.integers(-shape[axis], shape[axis], size=rng.integers(4, 12) * shape[axis])
        key = tuple(slice(None) for _ in range(axis)) + (index,)
        if rng.random() < 0.5:
            key = key + tuple(slice(None) for _ in range(len(shape) - axis - 1))
        out_shape = shape[:axis] + (len(index),) + shape[axis + 1 :]
        grad = rng.normal(size=out_shape) * 10.0 ** rng.integers(-8, 8, size=out_shape)
        for base in (np.zeros(shape), rng.normal(size=shape) * 1e3):
            self.assert_same_bits_as_add_at(key, grad, base)

    @pytest.mark.parametrize(
        "key",
        [
            slice(None, 3),
            slice(2, None),
            (slice(None), slice(1, 3)),
            (1, slice(None, None, 2)),
            (Ellipsis, 0),
            -1,
            (slice(None), np.array([0, 2, 0])),  # trailing array axis
        ],
        ids=str,
    )
    def test_basic_and_single_array_keys_match_add_at(self, key):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(4, 3))
        grad = rng.normal(size=base[key].shape)
        for start in (np.zeros_like(base), base):
            self.assert_same_bits_as_add_at(key, grad, start)

    def test_peer_gather_backward_matches_add_at(self):
        # The PI gather of attention.py: every member appears S-1 times.
        peer_index = np.array([[1, 2], [0, 2], [0, 1]]).reshape(-1)
        members = Tensor(RNG.normal(size=(5, 3, 4)), requires_grad=True)
        upstream = RNG.normal(size=(5, 6, 4))
        (members[:, peer_index, :] * Tensor(upstream)).sum().backward()
        expected = np.zeros((5, 3, 4))
        np.add.at(expected, (slice(None), peer_index, slice(None)), upstream)
        np.testing.assert_array_equal(
            members.grad.view(np.uint64), expected.view(np.uint64)
        )

    def test_gather_gradcheck(self):
        idx = np.array([0, 2, 2, 1])
        check_gradients(lambda t: t[idx], [randt(4, 3)])


class TestGradientDonation:
    """Aliasing-sensitive shapes for the grad-donation fast path."""

    def test_self_plus_self(self):
        x = randt(3)
        (x + x).sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 2.0, 2.0])

    def test_self_minus_self(self):
        x = randt(3)
        (x - x).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 0.0, 0.0])

    def test_shared_subexpression(self):
        x = randt(4)
        y = x * 2.0
        (y + y.sigmoid()).sum().backward()
        expected = 2.0 + 2.0 * _dsigmoid(2.0 * x.data)
        np.testing.assert_allclose(x.grad, expected)

    def test_root_grad_not_aliased_by_parents(self):
        x = randt(3)
        out = x + 1.0
        out.backward(np.ones(3))
        assert out.grad is not x.grad
        out.grad[:] = 99.0
        np.testing.assert_allclose(x.grad, [1.0, 1.0, 1.0])

    def test_sum_backward_readonly_view_still_accumulates(self):
        # sum donates a read-only broadcast view; a second consumer must
        # fall back to out-of-place addition, not crash on the view.
        x = randt(2, 3)
        s = x.sum()
        (s + s).backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 2.0))

    def test_broadcast_grads_with_donation(self):
        a, b = randt(4, 3), randt(3)
        check_gradients(lambda u, v: u + v, [a, b])
        check_gradients(lambda u, v: u - v, [a, b])


def _dsigmoid(z):
    s = 1.0 / (1.0 + np.exp(-z))
    return s * (1.0 - s)
