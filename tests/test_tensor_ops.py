"""Forward operator contracts against independent oracles."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conv_reference
import train_reference
from conftest import FRAGMENTS, conv2d_reference, fragment_graph, run_rule
from slimgraph import autograd as ag
from slimgraph import build_mini_net, ops, run_graph
from slimgraph.builders import PRESETS, GraphBuilder
from slimgraph.errors import ShapeError
from slimgraph.executor import RunState
from slimgraph.fakequant import qdq, qdq_backward, ste_mask
from slimgraph.graph import infer_shapes


def _bn_map_shapes(batch=16):
    """Every batchnorm input shape of the presets at the given batch size."""
    shapes = set()
    for preset in PRESETS:
        g = build_mini_net(preset, (batch, 3, 64, 64))
        edges = infer_shapes(g)
        shapes.update(edges[n.inputs[0]] for n in g.nodes.values() if n.kind == "batchnorm")
    return sorted(shapes)


def _check_against_row_major(n, cin, cout, k, stride, padding, h, w_, seed, dtype):
    """conv2d_forward/backward against the row-major oracle, element by element.

    Each element may differ by the dtype's tolerance times the sum of the
    magnitudes of the terms it adds up, which the oracle computes from |x|,
    |w|, |b| and |gy|: a sum that cancels keeps the rounding of its terms.
    """
    r = np.random.default_rng(seed)
    x = r.normal(size=(n, cin, h, w_)).astype(dtype)
    w = r.normal(size=(cout, cin, k, k)).astype(dtype)
    b = r.normal(size=cout).astype(dtype)
    y, cols = ops.conv2d_forward(x, w, b, stride, padding)
    y_ref, cols_ref = conv_reference.conv2d_forward(x, w, b, stride, padding)
    gy = r.normal(size=y.shape).astype(dtype)
    grads = ops.conv2d_backward(gy, x.shape, w, cols, stride, padding)
    grads_ref = conv_reference.conv2d_backward(gy, x, w, cols_ref, stride, padding)
    y_mag, cols_mag = conv_reference.conv2d_forward(np.abs(x), np.abs(w), np.abs(b), stride, padding)
    mags = conv_reference.conv2d_backward(np.abs(gy), np.abs(x), np.abs(w), cols_mag, stride, padding)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    for got, ref, mag in zip((y,) + grads, (y_ref,) + grads_ref, (y_mag,) + mags):
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert (np.abs(got - ref) <= tol * mag).all()


class TestConv2d:
    def test_hand_example_2x2_identity_diagonal(self):
        # nested-loop oracle agrees: windows [[1,2],[4,5]] -> 6, etc.
        x = np.arange(1, 10, dtype=np.float32).reshape(1, 1, 3, 3)
        w = np.array([[1, 0], [0, 1]], dtype=np.float32).reshape(1, 1, 2, 2)
        y, _ = ops.conv2d_forward(x, w)
        expected = np.array([[6.0, 8.0], [12.0, 14.0]])
        assert np.array_equal(y[0, 0], expected.astype(np.float32))
        assert np.allclose(conv2d_reference(x, w)[0, 0], expected)

    def test_zero_weight_gives_zero_output(self, rng):
        x = rng.normal(size=(2, 3, 5, 5)).astype(np.float32)
        w = np.zeros((4, 3, 3, 3), dtype=np.float32)
        assert not ops.conv2d_forward(x, w, stride=1, padding=1)[0].any()

    def test_one_hot_kernel_selects_channel(self, rng):
        x = rng.normal(size=(1, 4, 6, 6)).astype(np.float32)
        w = np.zeros((1, 4, 1, 1), dtype=np.float32)
        w[0, 2] = 1.0
        assert np.array_equal(ops.conv2d_forward(x, w)[0][0, 0], x[0, 2])

    @pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (1, 2), (3, 1)])
    def test_matches_reference_on_random_inputs(self, rng, stride, padding):
        x = rng.normal(size=(2, 3, 9, 8))
        w = rng.normal(size=(5, 3, 3, 3))
        b = rng.normal(size=5)
        y, _ = ops.conv2d_forward(x, w, b, stride, padding)
        ref = conv2d_reference(x, w, b, stride, padding)
        assert np.allclose(y, ref, rtol=1e-10, atol=1e-10)

    def test_identity_1x1_kernels_compose_to_identity(self, rng):
        x = rng.normal(size=(1, 4, 5, 5)).astype(np.float32)
        eye = np.eye(4, dtype=np.float32).reshape(4, 4, 1, 1)
        y, _ = ops.conv2d_forward(ops.conv2d_forward(x, eye)[0], eye)
        assert np.array_equal(y, x)

    def test_channel_mismatch_names_dimension(self):
        x = np.zeros((1, 3, 4, 4), dtype=np.float32)
        w = np.zeros((2, 4, 1, 1), dtype=np.float32)
        with pytest.raises(ShapeError, match="Cin=3.*Cin=4"):
            ops.conv2d_forward(x, w)

    def test_collapsed_output_rejected(self):
        x = np.zeros((1, 1, 2, 2), dtype=np.float32)
        w = np.zeros((1, 1, 5, 5), dtype=np.float32)
        with pytest.raises(ShapeError, match="collapses"):
            ops.conv2d_forward(x, w)

    def test_bit_determinism(self, rng):
        for n, k, stride, padding in ((2, 3, 2, 1), (16, 3, 2, 1), (16, 1, 1, 0)):
            x = rng.normal(size=(n, 8, 12, 12)).astype(np.float32)
            w = rng.normal(size=(16, 8, k, k)).astype(np.float32)
            b = rng.normal(size=16).astype(np.float32)
            y1, cols = ops.conv2d_forward(x, w, b, stride, padding)
            y2, _ = ops.conv2d_forward(x, w, b, stride, padding)
            assert y1.tobytes() == y2.tobytes()
            gy = rng.normal(size=y1.shape).astype(np.float32)
            g1 = ops.conv2d_backward(gy, x.shape, w, cols, stride, padding)
            g2 = ops.conv2d_backward(gy, x.shape, w, cols, stride, padding)
            assert all(a.tobytes() == c.tobytes() for a, c in zip(g1, g2))

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([1, 2, 16]), st.integers(1, 40), st.integers(1, 40),
           st.sampled_from([1, 3, 5]), st.integers(1, 2), st.sampled_from([np.float32, np.float64]),
           st.data())
    def test_matches_row_major_reference(self, n, cin, cout, k, stride, dtype, data):
        padding = data.draw(st.integers(0, k // 2), label="padding")
        h = data.draw(st.integers(k, 11), label="h")
        w_ = data.draw(st.integers(k, 11), label="w")
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        _check_against_row_major(n, cin, cout, k, stride, padding, h, w_, seed, dtype)

    def test_cancelling_weight_gradient_within_bound(self):
        # the weight gradient is a 784-term float32 sum that cancels to 0.37;
        # its rounding (6.0e-6) exceeds 1e-5 of that result, not of the terms
        _check_against_row_major(16, 1, 1, 1, 1, 0, 7, 7, 1309, np.float32)

    def test_1x1_stride1_uses_x_without_modifying_it(self, rng):
        x = rng.normal(size=(2, 5, 6, 7)).astype(np.float32)
        x0 = x.copy()
        w = rng.normal(size=(3, 5, 1, 1)).astype(np.float32)
        b = rng.normal(size=3).astype(np.float32)
        y, cols = ops.conv2d_forward(x, w, b)
        assert np.shares_memory(cols, x)
        ops.conv2d_backward(rng.normal(size=y.shape).astype(np.float32), x.shape, w, cols)
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
                                np.zeros(2, np.float32), np.ones(2, np.float32), 1e-5)
        assert np.allclose(y, beta[None, :, None, None])

    @pytest.mark.parametrize("shape", _bn_map_shapes())
    def test_batch_statistics_match_float64_two_pass(self, rng, shape):
        c = shape[1]
        loc = rng.normal(0.0, 1.0, c)[None, :, None, None]
        spread = rng.uniform(0.1, 2.0, c)[None, :, None, None]
        x = (rng.normal(size=shape) * spread + loc).astype(np.float32)
        _, (_, _, mu, var) = ops.batchnorm_train_forward(
            x, np.ones(c, np.float32), np.zeros(c, np.float32), 1e-5)
        x64 = x.astype(np.float64)
        ref_mu = x64.mean(axis=(0, 2, 3))
        ref_var = ((x64 - ref_mu[None, :, None, None]) ** 2).mean(axis=(0, 2, 3))
        assert mu.dtype == var.dtype == np.float32
        assert np.all(np.abs(var - ref_var) <= 1e-6 * ref_var)
        # a channel mean may sit near 0, so its error is relative to the channel's
        # root mean square, the scale at which summation rounds
        rms = np.sqrt((x64 ** 2).mean(axis=(0, 2, 3)))
        assert np.all(np.abs(mu - ref_mu) <= 1e-6 * rms)

    def test_train_backward_matches_unfused_formula(self, rng):
        x = rng.normal(0.3, 1.2, (4, 3, 5, 5))
        gamma, beta = rng.normal(size=3), rng.normal(size=3)
        gy = rng.normal(size=x.shape)
        _, cache = ops.batchnorm_train_forward(x, gamma, beta, 1e-5)
        gx, dgamma, dbeta = ops.batchnorm_train_backward(gy, gamma, cache)
        xhat, inv, _, _ = cache
        m = x.size // x.shape[1]
        ch = lambda v: v[None, :, None, None]
        ref_dgamma = (gy * xhat).sum(axis=(0, 2, 3))
        ref_dbeta = gy.sum(axis=(0, 2, 3))
        ref_gx = ch(gamma * inv) * (gy - ch(ref_dbeta / m) - xhat * ch(ref_dgamma / m))
        assert np.allclose(dgamma, ref_dgamma, rtol=1e-12, atol=1e-12)
        assert np.array_equal(dbeta, ref_dbeta)
        assert np.allclose(gx, ref_gx, rtol=1e-10, atol=1e-12)

    def test_length_mismatch_and_negative_variance(self):
        x = np.zeros((1, 3, 2, 2), dtype=np.float32)
        good = np.ones(3, np.float32)
        with pytest.raises(ShapeError, match="gamma"):
            ops.batchnorm_infer(x, np.ones(2, np.float32), good, good, good, 1e-5)
        with pytest.raises(ShapeError, match="non-negative"):
            ops.batchnorm_infer(x, good, good, good, np.array([1, 1, -1], np.float32), 1e-5)
        with pytest.raises(ShapeError, match="non-negative"):
            ops.batchnorm_infer(x, good, good, good, np.array([1, np.nan, 1], np.float32), 1e-5)

    @pytest.mark.parametrize("shape", _bn_map_shapes())
    def test_untaped_forward_equals_taped_bit_for_bit(self, rng, shape):
        c = shape[1]
        x = rng.normal(0.3, 1.2, shape).astype(np.float32)
        gamma, beta = (rng.normal(size=c).astype(np.float32) for _ in range(2))
        y, cache = ops.batchnorm_train_forward(x, gamma, beta, 1e-5)
        y_untaped, (xhat, *stats) = ops.batchnorm_train_forward(x, gamma, beta, 1e-5,
                                                                need_cache=False)
        assert y_untaped.tobytes() == y.tobytes() and xhat is None
        assert all(a.tobytes() == b.tobytes() for a, b in zip(stats, cache[1:], strict=True))

    @pytest.mark.parametrize("need_cache", [False, True])
    def test_forward_peaks_at_one_input_without_the_cache(self, rng, need_cache):
        """Without the cache ``y`` is built in ``xhat``'s buffer: one activation, not two."""
        x = rng.normal(size=(16, 32, 32, 32)).astype(np.float32)
        ones, zeros = np.ones(32, np.float32), np.zeros(32, np.float32)
        tracemalloc.start()
        try:
            ops.batchnorm_train_forward(x, ones, zeros, 1e-5, need_cache=need_cache)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak >= 2 * x.nbytes if need_cache else peak < 1.1 * x.nbytes

    @pytest.mark.parametrize("taped", [False, True])
    def test_only_a_tape_asks_for_the_cache(self, rng, monkeypatch, taped):
        calls = []
        forward = ops.batchnorm_train_forward
        monkeypatch.setattr(ops, "batchnorm_train_forward",
                            lambda *a, **kw: calls.append(kw["need_cache"]) or forward(*a, **kw))
        b = GraphBuilder("bn", (2, 3, 4, 4))
        b.add("output", "out", [b.batchnorm(b.add("input", "image", []), 3)])
        for mode in ("train", "calibrate"):
            tape = ag.Tape() if taped and mode == "train" else None
            run_graph(b.graph, rng.normal(size=(2, 3, 4, 4)).astype(np.float32), mode=mode,
                      tape=tape, state=RunState({}, {}))
        assert calls == [taped, False]


class TestElementwiseAndStructural:
    def test_sigmoid_symmetry_point(self):
        assert ops.sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_absolute_error_without_warnings(self):
        x = np.linspace(-300.0, 300.0, 600_001, dtype=np.float32)
        with np.errstate(all="raise"):
            s = ops.sigmoid(x)
        exact = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        assert np.max(np.abs(s - exact)) <= 2e-7
        assert s[0] == 0.0 and s[-1] == 1.0

    def test_sigmoid_allocates_its_result_alone(self, rng):
        x = rng.normal(size=(16, 32, 32, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            ops.sigmoid(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * x.nbytes

    def test_sigmoid_negative_tail(self):
        """Relative error about 2e-4 at -10 and 3% at -15, and exactly 0 from -20 down."""
        x = np.array([-10.0, -15.0], np.float32)
        exact = 1.0 / (1.0 + np.exp(-x.astype(np.float64)))
        rel = np.abs(ops.sigmoid(x) - exact) / exact
        assert 1e-4 < rel[0] < 3e-4 and 0.02 < rel[1] < 0.04
        assert (ops.sigmoid(np.linspace(-300.0, -20.0, 10_001, dtype=np.float32)) == 0).all()
        assert ops.sigmoid(np.array([-19.0], np.float32))[0] > 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_sigmoid_preserves_dtype(self, rng, dtype):
        assert ops.sigmoid(rng.normal(size=(2, 3, 4, 4)).astype(dtype)).dtype == dtype

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
        y, _ = ops.maxpool2d_forward(x, 2, 2, 0)
        assert y.shape == (1, 1, 1, 1) and y[0, 0, 0, 0] == 4.0

    def test_maxpool_stride1_padded_preserves_dims(self, rng):
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float32)
        y, _ = ops.maxpool2d_forward(x, 3, 1, 1)
        assert y.shape == x.shape
        # padding must never win the max even for all-negative inputs
        xneg = -np.abs(x) - 1.0
        yneg, _ = ops.maxpool2d_forward(xneg, 3, 1, 1)
        assert np.isfinite(yneg).all() and yneg.max() < 0

    @pytest.mark.parametrize("need_arg", [False, True])
    def test_maxpool_padding_beyond_half_window_rejected(self, need_arg):
        x = np.zeros((1, 1, 4, 4), np.float32)
        with pytest.raises(ShapeError, match=r"padding 3 exceeds k // 2 = 1"):
            ops.maxpool2d_forward(x, 2, 1, 3, need_arg=need_arg)
        assert ops.maxpool2d_forward(x, 2, 1, 1, need_arg=need_arg)[0].shape == (1, 1, 5, 5)

    @pytest.mark.parametrize("k, stride, padding", [(5, 1, 2), (2, 2, 0)])
    def test_maxpool_backward_matches_per_window_scatter(self, rng, k, stride, padding):
        x = rng.normal(size=(2, 3, 9, 9)).astype(np.float32)
        y, arg = ops.maxpool2d_forward(x, k, stride, padding, need_arg=True)
        gy = rng.normal(size=y.shape).astype(np.float32)
        ref = np.zeros((2, 3, 9 + 2 * padding, 9 + 2 * padding), np.float32)
        # windows in descending order reach each cell in ascending tap order,
        # the order in which the kernel adds, so the float sums agree bit for bit
        for a in reversed(range(y.shape[2])):
            for b in reversed(range(y.shape[3])):
                di, dj = np.divmod(arg[:, :, a, b], k)
                for n, c in np.ndindex(2, 3):
                    ref[n, c, a * stride + di[n, c], b * stride + dj[n, c]] += gy[n, c, a, b]
        # through the rules, whose taped forward computes the argmax it routes by
        got = _backward_of("maxpool", {"k": k, "stride": stride, "padding": padding})(x, gy)
        assert got.tobytes() == ref[:, :, padding:padding + 9, padding:padding + 9].tobytes()

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        assert np.allclose(ops.global_avg_pool(x), x.mean(axis=(2, 3)))

    def test_linear_matches_matmul(self, rng):
        x = rng.normal(size=(3, 4)).astype(np.float32)
        w = rng.normal(size=(2, 4)).astype(np.float32)
        b = rng.normal(size=2).astype(np.float32)
        assert np.allclose(ops.linear(x, w, b), x @ w.T + b)


@st.composite
def small_maps(draw):
    """(n, c, h, w, k, stride, padding, dtype, seed) with h*w <= 64 cells, square or not."""
    k = draw(st.sampled_from([1, 3, 5]))
    stride, padding = draw(st.integers(1, 2)), draw(st.integers(0, k // 2))
    low = max(1, k - 2 * padding)  # the least side whose output does not collapse
    h = draw(st.integers(low, 64 // low))
    w = draw(st.integers(low, 64 // h))
    return (draw(st.integers(1, 4)), draw(st.integers(1, 6)), h, w, k, stride, padding,
            draw(st.sampled_from([np.float32, np.float64])), draw(st.integers(0, 2**31 - 1)))


def _row_major(g6):
    """(N, C, kh, kw, Ho, Wo) tap values as the reference's (N*Ho*Wo, C*kh*kw) rows."""
    n, c, kh, kw, ho, wo = g6.shape
    return g6.transpose(0, 4, 5, 1, 2, 3).reshape(n * ho * wo, c * kh * kw)


class TestSmallMapSelection:
    """Maps of at most 64 cells gather and scatter taps with one selection GEMM, unless a
    gather takes the shifts; the slice copies, which larger maps and non-finite operands
    take, are the reference."""

    @settings(max_examples=300, deadline=None)
    @given(small_maps())
    def test_matches_slices_and_row_major_reference(self, case):
        n, c, h, w, k, stride, padding, dtype, seed = case
        r = np.random.default_rng(seed)
        x = r.normal(size=(n, c, h, w)).astype(dtype)
        ho, wo = ops._conv_out_dims(h, w, k, k, stride, padding)
        g6 = r.normal(size=(n, c, k, k, ho, wo)).astype(dtype)
        gy = r.normal(size=(n, c, ho, wo)).astype(dtype)
        gather, scatter = ops._gather_slices, ops._scatter_slices
        with pytest.MonkeyPatch.context() as mp:  # finite small maps never reach the slices
            mp.setattr(ops, "_gather_slices", None)
            mp.setattr(ops, "_scatter_slices", None)
            cols = ops._im2col(x, k, k, stride, padding)
            gx = ops._scatter_taps(g6, x.shape, stride, padding)
            _, arg = ops.maxpool2d_forward(x, k, stride, padding, need_arg=True)
            gp = ops.maxpool2d_backward(gy, arg, x.shape, k, stride, padding)

        assert np.array_equal(cols, gather(x, k, k, stride, padding, ho, wo).reshape(cols.shape))
        ref_cols = conv_reference.im2col(x, k, k, stride, stride, padding, padding)[0]
        assert np.array_equal(cols, ref_cols.reshape(n, ho * wo, -1).transpose(0, 2, 1))

        # the scatter sums each cell's taps in another order: bound it by their magnitudes
        tol = 1e-5 if dtype == np.float32 else 1e-12
        routed = ((arg[..., None] == np.arange(k * k)) * gy[..., None]).reshape(
            n, c, ho, wo, k, k).transpose(0, 1, 4, 5, 2, 3)
        for got, taps in ((gx, g6), (gp, routed)):
            mag = scatter(np.abs(taps), x.shape, stride, padding)
            ref = conv_reference.col2im(_row_major(taps), x.shape, k, k, stride, stride,
                                        padding, padding)
            assert got.shape == x.shape and got.dtype == x.dtype
            assert (np.abs(got - scatter(taps, x.shape, stride, padding)) <= tol * mag).all()
            assert (np.abs(got - ref) <= tol * mag).all()

    def test_selection_is_one_read_only_matrix_per_key(self):
        key = (7, 9, 3, 3, 2, 1)
        u = ops._selection(*key, np.dtype(np.float32))
        assert u is ops._selection(*key, np.dtype(np.float32))
        assert u.dtype == np.float32 and ops._selection(*key, np.dtype(np.float64)) is not u
        assert u.shape == (7 * 9, 3 * 3 * 4 * 5) and not u.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = 2
        assert set(np.unique(u)) == {0, 1} and u.sum(axis=0).max() == 1

    @pytest.mark.parametrize("h, w, gemm", [(8, 8, True), (4, 16, True), (5, 13, False),
                                            (16, 16, False)])
    def test_only_maps_of_at_most_64_cells_take_the_gemm(self, rng, monkeypatch, h, w, gemm):
        keys = []
        select = ops._selection
        monkeypatch.setattr(ops, "_selection", lambda *key: keys.append(key) or select(*key))
        x = rng.normal(size=(2, 3, h, w)).astype(np.float32)
        y, cols = ops.conv2d_forward(x, rng.normal(size=(4, 3, 3, 3)).astype(np.float32),
                                     None, 1, 1)
        ops.conv2d_backward(np.ones_like(y), x.shape, np.ones((4, 3, 3, 3), np.float32), cols, 1, 1)
        assert keys == ([(h, w, 3, 3, 1, 1, np.dtype(np.float32))] * 2 if gemm else [])

    def test_a_signed_zero_cell_reads_plus_zero(self, rng):
        """The GEMM gather equals the slices in value, but sums -0.0 * 1 with +0.0 terms."""
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        x[1, 2, 3, 4] = -0.0
        cols = ops._im2col(x, 3, 3, 1, 1)
        slices = ops._gather_slices(x, 3, 3, 1, 1, 8, 8).reshape(cols.shape)
        assert np.array_equal(cols, slices)
        flipped = np.signbit(cols) != np.signbit(slices)
        assert (slices[flipped] == 0).all() and flipped.sum() == 9  # each 3x3 tap reads it
        assert not np.signbit(cols[cols == 0]).any()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_cell_stays_local(self, rng, bad):
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        x[1, 2, 3, 4] = bad
        w = rng.normal(size=(4, 3, 3, 3)).astype(np.float32)
        cols = ops._im2col(x, 3, 3, 1, 1)
        slices = ops._gather_slices(x, 3, 3, 1, 1, 8, 8).reshape(cols.shape)
        assert np.array_equal(cols, slices, equal_nan=True)
        y = ops.conv2d_forward(x, w, None, 1, 1)[0]
        ref = conv_reference.conv2d_forward(x, w, None, 1, 1)[0]
        # the 3x3 outputs around the cell, in each output channel of image 1
        assert np.array_equal(np.isfinite(y), np.isfinite(ref)) and (~np.isfinite(y)).sum() == 36

        g6 = rng.normal(size=(2, 3, 3, 3, 8, 8)).astype(np.float32)
        g6[1, 2, 0, 1, 5, 5] = bad
        gx = ops._scatter_taps(g6, x.shape, 1, 1)
        assert np.array_equal(gx, ops._scatter_slices(g6, x.shape, 1, 1), equal_nan=True)
        assert (~np.isfinite(gx)).sum() == 1 and not np.isfinite(gx[1, 2, 4, 5])


@st.composite
def window_walks(draw):
    """(x, g6, kh, kw, stride, padding): maps of 1-20 cells a side, windows of 1-7 taps a
    side, strides of 1-4 (above the window side too) and padding up to the window side plus
    one, so that some windows lie wholly in padding. Map cells and tap gradients are normal,
    with some set to NaN, +-inf or -0.0, in float32 or float64."""
    h, w = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    kh, kw = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    stride = draw(st.integers(1, 4))
    low = max(0, -(-max(kh - h, kw - w) // 2))  # the least padding whose output does not collapse
    padding = draw(st.integers(low, max(kh, kw) + 1))
    ho, wo = ops._conv_out_dims(h, w, kh, kw, stride, padding)
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    r = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    arrays = []
    for shape in ((n, c, h, w), (n, c, kh, kw, ho, wo)):
        a = r.normal(size=shape).astype(dtype)
        for value in draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf, -0.0]),
                                   max_size=4)):
            a[tuple(r.integers(0, shape))] = value
        arrays.append(a)
    return (*arrays, kh, kw, stride, padding)


class TestWindowWalk:
    """Gather and scatter walk only the taps that read the map, into patches whose cells in
    padding are zero and a zero gradient of the input's shape, with no padded frame: they equal
    the framed kernels kept in ``conv_reference`` byte for byte, NaN and the sign of zero
    included."""

    @settings(max_examples=400, deadline=None)
    @given(window_walks())
    def test_equals_the_padded_frame_kernels(self, case):
        x, g6, kh, kw, stride, padding = case
        ho, wo = g6.shape[4:]
        pairs = ((ops._gather_slices(x, kh, kw, stride, padding, ho, wo),
                  conv_reference._gather_slices(x, kh, kw, stride, padding, ho, wo)),
                 (ops._scatter_slices(g6, x.shape, stride, padding),
                  conv_reference._scatter_slices(g6, x.shape, stride, padding)))
        for got, want in pairs:
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()

    def test_gather_and_scatter_hold_no_frame(self, rng):
        """Each holds its result, and numpy's fixed-size ufunc buffers (about 100 KB) for
        the scatter's adds; the framed kernels of ``conv_reference`` also hold the padded
        map (640 KB here), and their scatter a cropped copy of it."""
        x = rng.normal(size=(4, 16, 48, 48)).astype(np.float32)
        g6 = rng.normal(size=(4, 16, 3, 3, 48, 48)).astype(np.float32)
        for kernel in (lambda: ops._gather_slices(x, 3, 3, 1, 1, 48, 48),
                       lambda: ops._scatter_slices(g6, x.shape, 1, 1)):
            tracemalloc.start()
            try:
                out = kernel()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < out.nbytes + x.nbytes // 4, (peak, out.nbytes)


class TestEmptyBatch:
    """A batch of no images gives empty results of the shapes a full batch would."""

    @pytest.mark.parametrize("need_cols", [False, True])
    @pytest.mark.parametrize("k, stride, padding, side", [(1, 1, 0, 8), (3, 2, 1, 8),
                                                          (3, 1, 1, 16), (5, 2, 2, 9)])
    def test_conv(self, need_cols, k, stride, padding, side):
        x = np.zeros((0, 3, side, side), np.float32)
        w, b = np.ones((4, 3, k, k), np.float32), np.ones(4, np.float32)
        y, cols = ops.conv2d_forward(x, w, b, stride, padding, need_cols=need_cols)
        o = (side + 2 * padding - k) // stride + 1
        assert y.shape == (0, 4, o, o) and y.dtype == np.float32
        if need_cols:
            assert cols.shape == (0, 3 * k * k, o * o) and cols.dtype == np.float32
        else:
            assert cols is None

    @pytest.mark.parametrize("need_gx", [False, True])
    @pytest.mark.parametrize("side", [8, 16])  # the selection GEMM's scatter, then the slices
    def test_conv_backward(self, need_gx, side):
        x = np.zeros((0, 3, side, side), np.float32)
        w = np.ones((4, 3, 3, 3), np.float32)
        y, cols = ops.conv2d_forward(x, w, np.ones(4, np.float32), 1, 1)
        gx, gw, gb = ops.conv2d_backward(y, x.shape, w, cols, 1, 1, need_gx=need_gx)
        if need_gx:
            assert gx.shape == x.shape and gx.dtype == np.float32
        else:
            assert gx is None
        assert gw.shape == w.shape and gb.shape == (4,)
        assert not gw.any() and not gb.any()

    @pytest.mark.parametrize("need_arg", [False, True])
    def test_maxpool(self, need_arg):
        y, arg = ops.maxpool2d_forward(np.zeros((0, 3, 9, 9), np.float32), 3, 2, 1,
                                       need_arg=need_arg)
        assert y.shape == (0, 3, 5, 5) and y.dtype == np.float32
        if need_arg:
            assert arg.shape == y.shape and arg.dtype == np.uint8
        else:
            assert arg is None


def _conv_shapes():
    """Every conv of the presets and of ``FRAGMENTS`` as (Cin, H, W, Cout, k, stride, padding)."""
    shapes = set()
    for g in [build_mini_net(p, (1, 3, 64, 64)) for p in PRESETS] + [
            fragment_graph(m, w) for m, w in FRAGMENTS]:
        edges = infer_shapes(g)
        for n in g.nodes.values():
            if n.kind == "conv":
                _, c, h, w = edges[n.inputs[0]]
                cout, _, k, _ = n.params["weight"].shape
                shapes.add((c, h, w, cout, k, n.attrs.get("stride", 1), n.attrs.get("padding", 0)))
    return sorted(shapes)


WHOLE_CAP = 80 * 2**20  # largest whole-batch patch matrix a comparison builds


class TestChunkedConv:
    """Without ``need_cols`` a conv whose patches exceed ``ops._COLS_BUDGET`` works in image
    chunks; y equals the whole batch's bit for bit, and no patch matrix is returned."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("c, h, w, cout, k, stride, padding", _conv_shapes())
    def test_chunks_equal_the_whole_batch(self, monkeypatch, c, h, w, cout, k, stride, padding,
                                          dtype):
        """At batches 1, 5, 16 and 64 (those whose whole-batch patch matrix fits
        ``WHOLE_CAP``), chunked by the module's budget and by one of two images."""
        r = np.random.default_rng(c * h + cout)
        wt = r.normal(size=(cout, c, k, k)).astype(dtype)
        b = r.normal(size=cout).astype(dtype)
        ho, wo = ops._conv_out_dims(h, w, k, k, stride, padding)
        per_image = c * k * k * ho * wo * np.dtype(dtype).itemsize
        batches = [n for n in (1, 5, 16, 64) if n * per_image <= WHOLE_CAP]
        assert batches[:3] == [1, 5, 16]
        for n in batches:
            x = r.normal(size=(n, c, h, w)).astype(dtype)
            whole, cols = ops.conv2d_forward(x, wt, b, stride, padding)
            assert cols is not None
            for budget in (ops._COLS_BUDGET, 2 * per_image):
                monkeypatch.setattr(ops, "_COLS_BUDGET", budget)
                y, none = ops.conv2d_forward(x, wt, b, stride, padding, need_cols=False)
                assert none is None and y.dtype == whole.dtype and y.shape == whole.shape
                assert y.tobytes() == whole.tobytes(), (n, budget)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_non_finite_cell_sends_every_chunk_to_the_slices(self, rng, monkeypatch, bad):
        """The small-map GEMM is chosen once per batch: one image's inf or NaN sends the
        other chunks to the slices too, as in the whole batch."""
        x = rng.normal(size=(16, 12, 8, 8)).astype(np.float32)
        x[9, 4, 3, 3] = bad
        wt = rng.normal(size=(12, 12, 3, 3)).astype(np.float32)
        keys = []
        select = ops._selection
        monkeypatch.setattr(ops, "_selection", lambda *key: keys.append(key) or select(*key))
        whole = ops.conv2d_forward(x, wt, None, 1, 1)[0]
        monkeypatch.setattr(ops, "_COLS_BUDGET", 3 * 12 * 9 * 64 * 4)  # chunks of 3 images
        y = ops.conv2d_forward(x, wt, None, 1, 1, need_cols=False)[0]
        assert keys == [] and y.tobytes() == whole.tobytes()
        assert (~np.isfinite(y)).sum() == 9 * 12  # the 3x3 outputs around it, per channel

    def test_a_1x1_conv_is_one_chunk(self, rng, monkeypatch):
        """A 1x1 conv's patches are its input, so no budget splits its batch."""
        chunks = []
        im2col = ops._im2col
        monkeypatch.setattr(ops, "_im2col", lambda x, *a: chunks.append(len(x)) or im2col(x, *a))
        monkeypatch.setattr(ops, "_COLS_BUDGET", 1)
        x = rng.normal(size=(4, 3, 8, 8)).astype(np.float32)
        for k, padding, want in ((1, 0, [4]), (3, 1, [1, 1, 1, 1])):
            chunks.clear()
            ops.conv2d_forward(x, np.ones((2, 3, k, k), np.float32), None, 1, padding,
                               need_cols=False)
            assert chunks == want

    def test_untaped_forward_peaks_at_one_chunk(self, rng):
        """The stem's 64-image patch matrix is 2.25x its input; one chunk's is at most
        ``ops._COLS_BUDGET``."""
        x = rng.normal(size=(64, 3, 64, 64)).astype(np.float32)
        wt = rng.normal(size=(8, 3, 3, 3)).astype(np.float32)
        y = ops.conv2d_forward(x, wt, None, 2, 1, need_cols=False)[0]
        tracemalloc.start()
        try:
            ops.conv2d_forward(x, wt, None, 2, 1, need_cols=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < y.nbytes + 2 * ops._COLS_BUDGET < 2.25 * x.nbytes

    @pytest.mark.parametrize("taped", [False, True])
    def test_only_a_tape_asks_for_the_patches(self, rng, monkeypatch, taped):
        calls = []
        forward = ops.conv2d_forward
        monkeypatch.setattr(ops, "conv2d_forward",
                            lambda *a, **kw: calls.append(kw["need_cols"]) or forward(*a, **kw))
        b = GraphBuilder("conv", (1, 2, 6, 6))
        b.add("output", "out", [b.add("conv", "conv", [b.add("input", "image", [])],
                                      attrs={"stride": 1, "padding": 1},
                                      params={"weight": np.ones((2, 2, 3, 3), np.float32)})])
        run_graph(b.graph, rng.normal(size=(1, 2, 6, 6)).astype(np.float32), mode="train",
                  tape=ag.Tape() if taped else None, state=RunState({}, {}))
        assert calls == [taped]


class _PoisonedNumpy:
    """numpy, but ``empty`` fills its memory with 7.0: a patch cell that a gather never
    writes reads 7.0, not whatever the allocator left there."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def empty(shape, dtype=float):
        return np.full(shape, 7.0, dtype)


def _shift_cases():
    """(n, c, h, w, k, stride, padding) of n 1-3, c 1-2, sides 4-9, k 1/2/3/5, strides 1-3
    and padding 0-2 whose output does not collapse."""
    for n, c, h, w, k, stride, padding in itertools.product(
            (1, 2, 3), (1, 2), range(4, 10), range(4, 10), (1, 2, 3, 5), (1, 2, 3), (0, 1, 2)):
        if min(h, w) + 2 * padding >= k:
            yield n, c, h, w, k, stride, padding


# the gather each preset and fragment conv takes, (Cin, H, W, k, stride, padding) ->
# (at batch 1, at batch 16); every other conv of ``_conv_shapes`` is 1x1, its patches x
SHIFT_PATHS = {
    (3, 64, 64, 3, 2, 1): ("slices", "shifts"),
    (8, 16, 16, 3, 1, 1): ("slices", "shifts"),
    (8, 32, 32, 3, 2, 1): ("slices", "shifts"),
    (12, 8, 8, 3, 1, 1): ("gemm", "shifts"),
    (16, 4, 4, 3, 1, 1): ("gemm", "gemm"),
    (16, 16, 16, 3, 2, 1): ("slices", "shifts"),
    (24, 8, 8, 3, 1, 1): ("gemm", "shifts"),
    (24, 8, 8, 3, 2, 1): ("gemm", "gemm"),
    (32, 4, 4, 3, 1, 1): ("gemm", "gemm"),
    (32, 4, 4, 3, 2, 1): ("gemm", "gemm"),
    (32, 16, 16, 3, 1, 1): ("slices", "shifts"),
    (48, 2, 2, 3, 1, 1): ("gemm", "gemm"),
    (64, 16, 16, 3, 1, 1): ("shifts", "shifts"),
    (128, 16, 16, 3, 1, 1): ("shifts", "shifts"),
    (256, 16, 16, 3, 1, 1): ("shifts", "shifts"),
}


class TestShiftGather:
    """Where each stride phase of the map is an Ho x Wo grid and a batch has at least
    ``ops._SHIFT_CELLS`` patch values per tap, the patches are one strided copy per phase
    and one flat shifted copy per other tap; they equal the slices byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_slices_byte_for_byte(self, monkeypatch, dtype):
        """Over every shape of ``_shift_cases`` that the phase rule takes, with NaN, +-inf
        and -0.0 cells, and patch memory that starts at 7.0."""
        r = np.random.default_rng(34)
        taken = 0
        for n, c, h, w, k, stride, padding in _shift_cases():
            if ops._shift_plan(h, w, k, k, stride, padding) is None:
                continue
            ho, wo = ops._conv_out_dims(h, w, k, k, stride, padding)
            x = r.normal(size=(n, c, h, w)).astype(dtype)
            for value in (np.nan, np.inf, -np.inf, -0.0):
                x[tuple(r.integers(0, x.shape))] = value
            wants = (ops._gather_slices(x, k, k, stride, padding, ho, wo),
                     conv_reference._gather_slices(x, k, k, stride, padding, ho, wo))
            with monkeypatch.context() as mp:
                mp.setattr(ops, "np", _PoisonedNumpy())
                got = ops._gather_shifts(x, k, k, stride, padding, ho, wo)
            for want in wants:
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (n, c, h, w, k, stride, padding)
            taken += 1
        assert taken == 984  # 12 (k, stride, padding) rules; odd sides at stride 1 only

    @pytest.mark.parametrize("h, w, k, stride, padding", [
        (9, 9, 3, 2, 1),    # odd sides: the phases are 5 and 4 cells a side
        (8, 9, 3, 2, 1),
        (8, 8, 3, 1, 0),    # not "same": a 6x6 output
        (8, 8, 5, 1, 1),
        (10, 10, 3, 3, 1),  # 10 is not 3 x Ho
        (9, 9, 3, 3, 1),    # phase 2 is read only shifted, by tap 0
    ])
    def test_shapes_the_phase_rule_refuses_never_take_the_shifts(self, rng, monkeypatch, h, w,
                                                                  k, stride, padding):
        assert ops._shift_plan(h, w, k, k, stride, padding) is None
        monkeypatch.setattr(ops, "_gather_shifts", None)
        x = rng.normal(size=(16, 64, h, w)).astype(np.float32)  # far above _SHIFT_CELLS
        wt = rng.normal(size=(4, 64, k, k)).astype(np.float32)
        assert ops._gather_for(x, k, k, stride, padding) is not None  # today's rule
        for need_cols in (True, False):
            ops.conv2d_forward(x, wt, None, stride, padding, need_cols=need_cols)

    def test_the_plan_is_one_cached_object_of_slices_and_ints_per_key(self):
        key = (8, 8, 3, 3, 2, 1)
        plan = ops._shift_plan(*key)
        assert plan is ops._shift_plan(*key) and ops._shift_plan(16, 16, 3, 3, 2, 1) is not plan
        stack = [plan]
        while stack:
            item = stack.pop()
            if isinstance(item, tuple):
                stack.extend(item)
            else:
                assert item is None or isinstance(item, (int, slice)), type(item)

    def test_each_phase_slot_is_written_before_a_shifted_tap_reads_it(self, rng, monkeypatch):
        """k3 s2 p1 on an 8x8 map: the four phases land in the slots of taps (1, 1), (1, 2),
        (2, 1) and (2, 2), which read them unshifted; each of the other five taps copies
        from one of them, after it is written."""
        phases, shifts = ops._shift_plan(8, 8, 3, 3, 2, 1)
        assert sorted(t for t, _, _ in phases) == [4, 5, 7, 8]
        written = set()
        for t, _, _ in phases:
            written.add(t)
        for t, src, *_ in shifts:
            assert src in written and t not in written
            written.add(t)
        assert written == set(range(9))
        x = rng.normal(size=(2, 3, 8, 8)).astype(np.float32)
        want = ops._gather_slices(x, 3, 3, 2, 1, 4, 4)
        monkeypatch.setattr(ops, "np", _PoisonedNumpy())
        assert ops._gather_shifts(x, 3, 3, 2, 1, 4, 4).tobytes() == want.tobytes()

    def test_each_preset_and_fragment_conv_takes_its_pinned_gather(self):
        seen = {}
        for c, h, w, _, k, stride, padding in _conv_shapes():
            if (k, stride, padding) == (1, 1, 0):
                continue
            assert ops._shift_plan(h, w, k, k, stride, padding) is not None
            seen[(c, h, w, k, stride, padding)] = tuple(
                ops._gather_for(np.zeros((n, c, h, w), np.float32), k, k, stride,
                                padding).__name__.removeprefix("_gather_") for n in (1, 16))
        assert seen == SHIFT_PATHS

    def test_a_signed_zero_cell_keeps_its_sign(self, rng):
        """Where the GEMM would read +0.0 (a map of 64 cells), the shifts copy -0.0."""
        x = rng.normal(size=(16, 12, 8, 8)).astype(np.float32)
        x[9, 4, 3, 3] = -0.0
        assert ops._gather_for(x, 3, 3, 1, 1) is ops._gather_shifts
        cols = ops._im2col(x, 3, 3, 1, 1)
        assert cols.tobytes() == ops._gather_slices(x, 3, 3, 1, 1, 8, 8).tobytes()
        taps = cols[9, 4 * 9:5 * 9]  # the rows of channel 4
        assert (np.signbit(taps) & (taps == 0)).sum() == 9  # each tap reads it once

    def test_the_gather_is_chosen_once_per_batch(self, rng, monkeypatch):
        """An untaped conv's image chunks take the gather of the whole batch: the shifts
        for chunks with fewer than ``_SHIFT_CELLS`` patch values per tap, and the slices
        for chunks of a batch that the GEMM would gather but for one image's inf."""
        gathers = []
        for name in ("_gather_shifts", "_gather_gemm", "_gather_slices"):
            kernel = getattr(ops, name)
            monkeypatch.setattr(ops, name, lambda *a, name=name, kernel=kernel:
                                gathers.append(name) or kernel(*a))
        wt = rng.normal(size=(12, 12, 3, 3)).astype(np.float32)
        for n, bad, want in ((16, None, "_gather_shifts"), (4, np.inf, "_gather_slices")):
            x = rng.normal(size=(n, 12, 8, 8)).astype(np.float32)
            if bad is not None:
                x[2, 4, 3, 3] = bad
            gathers.clear()
            whole = ops.conv2d_forward(x, wt, None, 1, 1)[0]
            monkeypatch.setattr(ops, "_COLS_BUDGET", 12 * 9 * 64 * 4)  # chunks of one image
            y = ops.conv2d_forward(x, wt, None, 1, 1, need_cols=False)[0]
            assert gathers == [want] * (1 + n) and y.tobytes() == whole.tobytes()


@st.composite
def pool_cases(draw):
    """(x, k, stride, padding): maps of at most 64 cells or more, square or not, values
    normal or integer-valued (ties), in half the draws with 80% of cells set to -inf, and
    with some cells set to NaN, +-inf or +-0."""
    k = draw(st.integers(1, 5))
    stride, padding = draw(st.integers(1, 3)), draw(st.integers(0, k // 2))
    low = max(1, k - 2 * padding)  # the least side whose output does not collapse
    small, square = draw(st.booleans()), draw(st.booleans())
    h = draw(st.integers(low, 64 // low) if small else st.integers(max(low, 4), 16))
    if square and (h * h <= 64) == small:
        w = h
    else:  # small maps hold at most 64 cells, larger ones more
        w = draw(st.integers(low, 64 // h) if small else st.integers(max(low, 64 // h + 1), 20))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 4)), h, w)
    r = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    values = r.integers(-3, 4, shape) if draw(st.booleans()) else r.normal(size=shape)
    x = values.astype(draw(st.sampled_from([np.float32, np.float64])))
    if draw(st.booleans()):  # most windows -inf, many of them framed: the -inf argmax rule
        x[r.random(shape) < 0.8] = -np.inf
    for value in draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0]),
                               max_size=3)):
        x[tuple(r.integers(0, shape))] = value
    return x, k, stride, padding


def _window_argmax(x, k, stride, padding):
    """(value, np.argmax) of each k x k window of the -inf-padded map, in window order."""
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=-np.inf)
    ho = (xp.shape[2] - k) // stride + 1
    wo = (xp.shape[3] - k) // stride + 1
    y = np.empty(x.shape[:2] + (ho, wo), x.dtype)
    arg = np.empty(x.shape[:2] + (ho, wo), np.intp)
    for n, c, a, b in np.ndindex(y.shape):
        win = xp[n, c, a * stride:a * stride + k, b * stride:b * stride + k].ravel()
        arg[n, c, a, b] = np.argmax(win)
        y[n, c, a, b] = win[arg[n, c, a, b]]
    return y, arg


class TestMaxpoolRunningMaxima:
    """y is running maxima; with need_arg, the argmax is the first tap equal to y."""

    @settings(max_examples=400, deadline=None)
    @given(pool_cases())
    def test_equals_window_max_and_the_argmax_path(self, case):
        x, k, stride, padding = case
        y, none = ops.maxpool2d_forward(x, k, stride, padding)
        y_arg, arg = ops.maxpool2d_forward(x, k, stride, padding, need_arg=True)
        ref, arg_ref = _window_argmax(x, k, stride, padding)
        assert none is None and np.array_equal(arg, arg_ref)
        assert arg.dtype == np.min_scalar_type(k * k - 1)
        for got in (y, y_arg):
            assert got.dtype == x.dtype and got.flags.c_contiguous
            # bit for bit: NaN in the same cells and, of tied 0.0 and -0.0, the first
            assert got.tobytes() == ref.tobytes()

    def test_argmax_takes_the_first_nan_and_a_winning_frame_cell(self):
        x = np.full((1, 1, 3, 3), -np.inf)
        x[0, 0, 2, 1] = x[0, 0, 2, 2] = np.nan
        y, arg = ops.maxpool2d_forward(x, 3, 1, 1, need_arg=True)
        assert np.isnan(y[0, 0, 2]).all() and arg[0, 0, 2].tolist() == [5, 4, 3]
        # in the -inf rows every tap ties, and the first is a frame cell unless it is in the map
        assert arg[0, 0, 0].tolist() == [0, 0, 0] and y[0, 0, 0, 0] == -np.inf

    @pytest.mark.parametrize("first", [0.0, -0.0])
    @pytest.mark.parametrize("cells", [((0, 0), (0, 1)), ((0, 1), (1, 0))])
    def test_of_tied_zeros_y_is_the_first_in_window_order(self, first, cells):
        x = np.full((1, 1, 2, 2), -1.0, np.float32)
        x[(0, 0) + cells[0]], x[(0, 0) + cells[1]] = first, -first
        for need_arg in (False, True):
            y, _ = ops.maxpool2d_forward(x, 2, 2, 0, need_arg=need_arg)
            assert y[0, 0, 0, 0] == 0 and np.signbit(y[0, 0, 0, 0]) == np.signbit(first)

    def test_taped_forward_peaks_below_three_inputs(self, rng):
        x = rng.normal(size=(1, 128, 16, 16)).astype(np.float32)
        tracemalloc.start()
        try:
            ops.maxpool2d_forward(x, 5, 1, 2, need_arg=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * x.nbytes

    def test_untaped_forward_peaks_below_three_inputs(self, rng):
        x = rng.normal(size=(1, 128, 16, 16)).astype(np.float32)
        tracemalloc.start()
        try:
            ops.maxpool2d_forward(x, 5, 1, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * x.nbytes

    @pytest.mark.parametrize("taped", [False, True])
    def test_only_a_tape_asks_for_the_argmax(self, rng, monkeypatch, taped):
        calls = []
        forward = ops.maxpool2d_forward
        monkeypatch.setattr(ops, "maxpool2d_forward",
                            lambda *a, **kw: calls.append(kw["need_arg"]) or forward(*a, **kw))
        b = GraphBuilder("pool", (1, 2, 6, 6))
        b.add("output", "out", [b.add("maxpool", "pool", [b.add("input", "image", [])],
                                      attrs={"k": 3, "stride": 1, "padding": 1})])
        run_graph(b.graph, rng.normal(size=(1, 2, 6, 6)).astype(np.float32), mode="train",
                  tape=ag.Tape() if taped else None, state=RunState({}, {}))
        assert calls == [taped]


def _backward_of(kind, attrs=None):
    """The input gradient that ``kind``'s backward rule returns for upstream gradient g."""
    def run(x, g):
        _, backward = run_rule(kind, [x], attrs)
        return backward([g])[0][0]
    return run


def _reference_backward_of(fn):
    """The input gradient that a ``train_reference`` wrapper records for upstream gradient g."""
    def run(x, g):
        tape, v = train_reference.Tape(), train_reference.Var(x)
        fn(tape, v)
        (_, grad), = tape._records
        grad(g)
        return v.grad
    return run


def _channels(*values):
    return [np.full(3, v) for v in values]


def _bn_cache(x):
    return ops.batchnorm_train_forward(x, *_channels(1.5, 0.2), 1e-5)[1]


@pytest.mark.parametrize("dtype, tol", [(np.float32, 1e-6), (np.float64, 1e-14)])
def test_activation_backward_matches_unfused_formulas(rng, dtype, tol):
    x = rng.normal(0.0, 4.0, (2, 3, 8, 8)).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    s = ops.sigmoid(x)
    for fn, ref in (("sigmoid", g * s * (1.0 - s)), ("silu", g * (s + x * s * (1.0 - s)))):
        got = _backward_of("activation", {"fn": fn})(x, g)
        assert got.dtype == dtype
        assert np.abs(got - ref).max() <= tol * np.abs(ref).max()


def silu(x, g):
    """The SiLU rule's input gradient for upstream gradient g."""
    return _backward_of("activation", {"fn": "silu"})(x, g)


_AMAX = np.array([6.35], np.float32)  # a quantizer's amax, read as it reads it
_SCALE = float(_AMAX[0]) / ops.QMAX


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name, library, reference", [
    ("silu", silu, train_reference.silu),
    ("qdq", lambda x, g: run_rule("fakequant", [x], {"phase": "active"}, {"amax": _AMAX})[1](
        [g])[0][0], lambda t, v: train_reference.qdq(t, v, _SCALE)),
])
def test_backward_bit_identical_to_the_capturing_form(rng, dtype, name, library, reference):
    # a tape keeps the SiLU derivative and the STE mask instead of the forward operands
    special = [0.0, -0.0, 6.35, -6.35, -6.4, 30.0, -30.0, 1e4, -1e4, np.inf, -np.inf, np.nan]
    x = np.concatenate([rng.normal(0.0, 4.0, 500), special]).astype(dtype)
    g = np.concatenate([rng.normal(size=500), np.ones(len(special))]).astype(dtype)
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = library(x, g), _reference_backward_of(reference)(x, g)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


# every kernel that writes into buffers in place: (x, g) -> (kernel, *arguments)
IN_PLACE_KERNELS = {
    "sigmoid": lambda x, g: (ops.sigmoid, x),
    "batchnorm_infer": lambda x, g: (ops.batchnorm_infer, x, *_channels(1.5, 0.2, 0.1, 2.0), 1e-5),
    "batchnorm_train_forward": lambda x, g: (ops.batchnorm_train_forward, x, *_channels(1.5, 0.2),
                                             1e-5),
    "batchnorm_train_backward": lambda x, g: (ops.batchnorm_train_backward, g, *_channels(1.5),
                                              _bn_cache(x)),
    "maxpool2d_forward": lambda x, g: (ops.maxpool2d_forward, x, 3, 1, 1),
    "qdq": lambda x, g: (qdq, x, 0.01),
    "ste_mask": lambda x, g: (ste_mask, x, 0.01),
    "qdq_backward": lambda x, g: (qdq_backward, g, ste_mask(x, 0.01)),
    "autograd.sigmoid backward": lambda x, g: (_backward_of("activation", {"fn": "sigmoid"}), x, g),
    "autograd.silu backward": lambda x, g: (_backward_of("activation", {"fn": "silu"}), x, g),
}


@pytest.mark.parametrize("name", IN_PLACE_KERNELS)
def test_in_place_kernels_leave_inputs_unmodified(rng, name):
    x = rng.normal(0.0, 2.0, (2, 3, 4, 4))
    g = rng.normal(size=x.shape)
    kernel, *args = IN_PLACE_KERNELS[name](x, g)
    arrays = [a for arg in args for a in (arg if isinstance(arg, tuple) else (arg,))
              if isinstance(a, np.ndarray)]
    before = [a.copy() for a in arrays]
    kernel(*args)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, before))


_W3 = np.ones((2, 3, 3, 3))  # a 3x3 conv weight for the (2, 3, 4, 4) maps below

# the public kernels that IN_PLACE_KERNELS leaves out, in its form
OTHER_KERNELS = {
    "conv2d_forward": lambda x, g: (ops.conv2d_forward, x, _W3, np.ones(2), 1, 1),
    "conv2d_backward": lambda x, g: (ops.conv2d_backward, g[:, :2], x.shape, _W3,
                                     ops.conv2d_forward(x, _W3, None, 1, 1)[1], 1, 1),
    "silu_derivative": lambda x, g: (ops.silu_derivative, x, ops.sigmoid(x)),
    "add": lambda x, g: (ops.add, x, g),
    "multiply": lambda x, g: (ops.multiply, x, g),
    "scale_channels": lambda x, g: (ops.scale_channels, x, np.ones(3)),
    "concat_channels": lambda x, g: (ops.concat_channels, [x, g]),
    "split_channels": lambda x, g: (ops.split_channels, x, [1, 2]),
    "maxpool2d_backward": lambda x, g: (ops.maxpool2d_backward, g, ops.maxpool2d_forward(
        x, 3, 1, 1, need_arg=True)[1], x.shape, 3, 1, 1),
    "global_avg_pool": lambda x, g: (ops.global_avg_pool, x),
    "linear": lambda x, g: (ops.linear, x.reshape(2, -1), np.ones((5, 48)), np.ones(5)),
}


def _arrays(value):
    """The arrays in a value, its tuples and lists searched."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _arrays(v)


@pytest.mark.parametrize("name", {**IN_PLACE_KERNELS, **OTHER_KERNELS})
def test_kernels_write_no_input_and_return_new_arrays(rng, name):
    """Every input is read-only here, so a write raises; no result shares an input's memory.
    The one exception, a 1x1 conv's patches, is ``test_1x1_stride1_uses_x_without_modifying_it``."""
    x = rng.normal(0.0, 2.0, (2, 3, 4, 4))
    g = rng.normal(size=x.shape)
    kernel, *args = {**IN_PLACE_KERNELS, **OTHER_KERNELS}[name](x, g)
    inputs = list(_arrays(args))
    for a in inputs:
        a.flags.writeable = False
    results = list(_arrays(kernel(*args)))
    assert results and not any(np.shares_memory(r, a) for r in results for a in inputs)
