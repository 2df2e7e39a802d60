"""Forward operator contracts against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conv_reference
from conftest import conv2d_reference
from slimgraph import ops
from slimgraph.errors import ShapeError


class TestConv2d:
    def test_hand_example_2x2_identity_diagonal(self):
        # nested-loop oracle agrees: windows [[1,2],[4,5]] -> 6, etc.
        x = np.arange(1, 10, dtype=np.float32).reshape(1, 1, 3, 3)
        w = np.array([[1, 0], [0, 1]], dtype=np.float32).reshape(1, 1, 2, 2)
        y = ops.conv2d(x, w)
        expected = np.array([[6.0, 8.0], [12.0, 14.0]])
        assert np.array_equal(y[0, 0], expected.astype(np.float32))
        assert np.allclose(conv2d_reference(x, w)[0, 0], expected)

    def test_zero_weight_gives_zero_output(self, rng):
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        w = np.zeros((4, 3, 3, 3), dtype=np.float32)
        assert not ops.conv2d(x, w, stride=1, padding=1).any()

    def test_one_hot_kernel_selects_channel(self, rng):
        x = rng.normal(size=(1, 4, 6, 6)).astype(np.float32)
        w = np.zeros((1, 4, 1, 1), dtype=np.float32)
        w[0, 2] = 1.0
        assert np.array_equal(ops.conv2d(x, w)[0, 0], x[0, 2])

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, 2), (3, 1)])
    def test_matches_reference_on_random_inputs(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 9, 8))
        w = rng.normal(size=(5, 3, 3, 3))
        b = rng.normal(size=5)
        y = ops.conv2d(x, w, b, stride, padding)
        ref = conv2d_reference(x, w, b, stride, padding)
        assert np.allclose(y, ref, rtol=1e-10, atol=1e-10)

    def test_identity_1x1_kernels_compose_to_identity(self, rng):
        x = rng.normal(size=(1, 4, 5, 5)).astype(np.float32)
        eye = np.eye(4, dtype=np.float32).reshape(4, 4, 1, 1)
        y = ops.conv2d(ops.conv2d(x, eye), eye)
        assert np.array_equal(y, x)

    def test_channel_mismatch_names_dimension(self):
        x = np.zeros((1, 3, 4, 4), dtype=np.float32)
        w = np.zeros((2, 4, 1, 1), dtype=np.float32)
        with pytest.raises(ShapeError, match="Cin=3.*Cin=4"):
            ops.conv2d(x, w)

    def test_collapsed_output_rejected(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        w = np.zeros((1, 1, 5, 5), dtype=np.float32)
        with pytest.raises(ShapeError, match="collapses"):
            ops.conv2d(x, w)

    def test_bit_determinism(self, rng):
        for n, k, stride, padding in ((2, 3, 2, 1), (16, 3, 2, 1), (16, 1, 1, 0)):
            x = rng.normal(size=(n, 8, 12, 12)).astype(np.float32)
            w = rng.normal(size=(16, 8, k, k)).astype(np.float32)
            b = rng.normal(size=16).astype(np.float32)
            y1, cols = ops.conv2d_forward(x, w, b, stride, padding, keep_cols=True)
            y2 = ops.conv2d(x, w, b, stride, padding)
            assert y1.tobytes() == y2.tobytes()
            gy = rng.normal(size=y1.shape).astype(np.float32)
            g1 = ops.conv2d_backward(gy, x, w, cols, stride, padding)
            g2 = ops.conv2d_backward(gy, x, w, cols, stride, padding)
            assert all(a.tobytes() == c.tobytes() for a, c in zip(g1, g2))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 2, 16]), st.integers(1, 40), st.integers(1, 40),
           st.sampled_from([1, 3, 5]), st.integers(1, 2), st.sampled_from([np.float32, np.float64]),
           st.data())
    def test_matches_row_major_reference(self, n, cin, cout, k, stride, dtype, data):
        padding = data.draw(st.integers(0, k // 2), label="padding")
        h = data.draw(st.integers(k, 11), label="h")
        w_ = data.draw(st.integers(k, 11), label="w")
        r = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1), label="seed"))
        x = r.normal(size=(n, cin, h, w_)).astype(dtype)
        w = r.normal(size=(cout, cin, k, k)).astype(dtype)
        b = r.normal(size=cout).astype(dtype)
        y, cols = ops.conv2d_forward(x, w, b, stride, padding, keep_cols=True)
        y_ref, cols_ref = conv_reference.conv2d_forward(x, w, b, stride, padding)
        gy = r.normal(size=y.shape).astype(dtype)
        grads = ops.conv2d_backward(gy, x, w, cols, stride, padding)
        grads_ref = conv_reference.conv2d_backward(gy, x, w, cols_ref, stride, padding)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for got, ref in zip((y,) + grads, (y_ref,) + grads_ref):
            assert got.shape == ref.shape and got.dtype == ref.dtype
            assert np.abs(got - ref).max() <= tol * np.abs(ref).max()
        recomputed = ops.conv2d_backward(gy, x, w, None, stride, padding)
        assert all(a.tobytes() == c.tobytes() for a, c in zip(grads, recomputed))

    def test_1x1_stride1_uses_x_without_modifying_it(self, rng):
        x = rng.normal(size=(2, 5, 6, 7)).astype(np.float32)
        x0 = x.copy()
        w = rng.normal(size=(3, 5, 1, 1)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        y, cols = ops.conv2d_forward(x, w, b, keep_cols=True)
        assert np.shares_memory(cols, x)
        ops.conv2d_backward(rng.normal(size=y.shape).astype(np.float32), x, w, cols)
        assert np.array_equal(x, x0)


class TestBatchnorm:
    def test_identity_parameters(self, rng):
        x = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        ones, zeros = np.ones(3, np.float32), np.zeros(3, np.float32)
        y = ops.batchnorm_infer(x, ones, zeros, zeros, ones, eps=0.0)
        assert np.allclose(y, x, atol=1e-6)

    def test_hand_affine_evaluation(self):
        # x=2, gamma=3, beta=1, mean=2, var=1, eps=0 -> 3*(2-2)/1 + 1 = 1
        x = np.full((1, 1, 2, 2), 2.0, dtype=np.float32)
        y = ops.batchnorm_infer(x, np.array([3.0], np.float32), np.array([1.0], np.float32),
                                np.array([2.0], np.float32), np.array([1.0], np.float32), eps=0.0)
        assert np.allclose(y, 1.0)

    def test_zero_gamma_returns_beta(self, rng):
        x = rng.normal(size=(1, 2, 3, 3)).astype(np.float32)
        beta = np.array([0.5, -1.5], np.float32)
        y = ops.batchnorm_infer(x, np.zeros(2, np.float32), beta,
                                np.zeros(2, np.float32), np.ones(2, np.float32))
        assert np.allclose(y, beta[None, :, None, None])

    def test_length_mismatch_and_negative_variance(self):
        x = np.zeros((1, 3, 2, 2), dtype=np.float32)
        good = np.ones(3, np.float32)
        with pytest.raises(ShapeError, match="gamma"):
            ops.batchnorm_infer(x, np.ones(2, np.float32), good, good, good)
        with pytest.raises(ShapeError, match="non-negative"):
            ops.batchnorm_infer(x, good, good, good, np.array([1, 1, -1], np.float32))


class TestElementwiseAndStructural:
    def test_sigmoid_and_silu_symmetry_point(self):
        assert ops.sigmoid(np.array([0.0]))[0] == 0.5
        assert ops.silu(np.array([0.0]))[0] == 0.0

    def test_add_shape_mismatch(self):
        with pytest.raises(ShapeError, match="identical shapes"):
            ops.add(np.zeros((1, 2, 3, 3)), np.zeros((1, 3, 3, 3)))

    def test_split_concat_roundtrip(self, rng):
        a = rng.normal(size=(2, 3, 4, 4)).astype(np.float32)
        b = rng.normal(size=(2, 5, 4, 4)).astype(np.float32)
        ra, rb = ops.split_channels(ops.concat_channels([a, b]), [3, 5])
        assert np.array_equal(ra, a) and np.array_equal(rb, b)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_split_concat_roundtrip_property(self, sizes, seed):
        r = np.random.default_rng(seed)
        parts = [r.normal(size=(1, s, 2, 2)).astype(np.float32) for s in sizes]
        back = ops.split_channels(ops.concat_channels(parts), sizes)
        for p, q in zip(parts, back):
            assert np.array_equal(p, q)

    def test_split_sizes_must_sum(self):
        with pytest.raises(ShapeError, match="sum"):
            ops.split_channels(np.zeros((1, 4, 2, 2), np.float32), [1, 2])

    def test_maxpool_hand_example(self):
        x = np.array([[1, 2], [3, 4]], dtype=np.float32).reshape(1, 1, 2, 2)
        y = ops.maxpool2d(x, 2, stride=2)
        assert y.shape == (1, 1, 1, 1) and y[0, 0, 0, 0] == 4.0

    def test_maxpool_stride1_padded_preserves_dims(self, rng):
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        y = ops.maxpool2d(x, 3, stride=1, padding=1)
        assert y.shape == x.shape
        # padding must never win the max even for all-negative inputs
        xneg = -np.abs(x) - 1.0
        yneg = ops.maxpool2d(xneg, 3, stride=1, padding=1)
        assert np.isfinite(yneg).all() and yneg.max() < 0

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        assert np.allclose(ops.global_avg_pool(x), x.mean(axis=(2, 3)))

    def test_linear_matches_matmul(self, rng):
        x = rng.normal(size=(3, 4)).astype(np.float32)
        w = rng.normal(size=(2, 4)).astype(np.float32)
        b = rng.normal(size=2).astype(np.float32)
        assert np.allclose(ops.linear(x, w, b), x @ w.T + b)

    def test_tensor_validator_rejects_zero_dims(self):
        with pytest.raises(ShapeError):
            ops.tensor(np.zeros((2, 0, 3)))
