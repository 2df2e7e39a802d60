"""Quantizer lifecycle, calibration, QDQ semantics, STE, fp16 export."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_rule, settled_graph
from container_reference import reference_to_bytes
from observer_reference import ReferenceObserver
from slimgraph import build_mini_net, fakequant, forward_arrays, ops
from slimgraph.builders import PRESETS, GraphBuilder
from slimgraph.errors import CalibrationError, ExportError, QuantError
from slimgraph.modelio import to_bytes
from slimgraph.fakequant import (_CHUNK, QMAX, QMIN, HistogramObserver, calibrate,
                                 calibration_rows, cast_fp16, export_fp16, insert_fakequant,
                                 qdq, qdq_backward, quantizer_ids, ste_mask)
from slimgraph.pipeline import ToyTask


# ---------------------------------------------------------------------------
# software binary16 oracle (pure bit manipulation, round-to-nearest-even)
# ---------------------------------------------------------------------------

def f32_to_f16_bits(value: float) -> int:
    (bits,) = struct.unpack("<I", struct.pack("<f", np.float32(value)))
    sign = (bits >> 16) & 0x8000
    exp = (bits >> 23) & 0xFF
    mant = bits & 0x7FFFFF
    if exp == 0xFF:  # inf / nan
        return sign | 0x7C00 | (0x200 if mant else 0)
    e = exp - 127 + 15
    if e >= 0x1F:  # overflow -> inf
        return sign | 0x7C00
    if e <= 0:  # subnormal half (or zero)
        if e < -10:
            return sign
        mant |= 0x800000  # implicit leading one
        shift = 14 - e
        half_mant = mant >> shift
        rem = mant & ((1 << shift) - 1)
        tie = 1 << (shift - 1)
        if rem > tie or (rem == tie and (half_mant & 1)):
            half_mant += 1
        return sign | half_mant
    half_mant = mant >> 13
    rem = mant & 0x1FFF
    if rem > 0x1000 or (rem == 0x1000 and (half_mant & 1)):
        half_mant += 1
        if half_mant == 0x400:
            half_mant = 0
            e += 1
            if e >= 0x1F:
                return sign | 0x7C00
    return sign | (e << 10) | half_mant


class TestBinary16Oracle:
    def test_numpy_conversion_bit_exact_against_oracle(self, rng):
        vals = np.concatenate([
            rng.uniform(-1, 1, 2000),
            rng.normal(0, 100, 500),
            np.array([0.0, -0.0, 0.5, 1.0, -2.0, 65504.0, 1e-8, 6.1e-5, 2 ** -24]),
        ]).astype(np.float32)
        ours = np.array([f32_to_f16_bits(float(v)) for v in vals], dtype=np.uint16)
        theirs = vals.astype(np.float16).view(np.uint16)
        assert np.array_equal(ours, theirs)


class TestQdq:
    def test_zero_maps_to_zero(self):
        assert qdq(np.array([0.0], np.float32), 0.1)[0] == 0.0

    def test_hand_arithmetic(self):
        y = qdq(np.array([0.26, 20.0], np.float32), 0.1)
        assert y[0] == pytest.approx(0.3, abs=1e-7)   # round(2.6) = 3
        assert y[1] == pytest.approx(12.7, abs=1e-6)  # clamped at 127
        assert qdq(np.array([-20.0], np.float32), 0.1)[0] == pytest.approx(-12.8, abs=1e-6)

    def test_idempotence(self, rng):
        x = rng.normal(0, 5, 1000).astype(np.float32)
        once = qdq(x, 0.07)
        assert np.array_equal(qdq(once, 0.07), once)

    def test_round_half_to_even(self):
        # 0.5 and 1.5 steps round to even integers
        y = qdq(np.array([0.05, 0.15, 0.25], np.float32), 0.1)
        assert np.allclose(y, [0.0, 0.2, 0.2], atol=1e-7)

    def test_scale_must_be_positive(self):
        with pytest.raises(QuantError):
            qdq(np.zeros(1, np.float32), 0.0)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_property_suite(self, seed):
        r = np.random.default_rng(seed)
        s = float(r.uniform(1e-3, 2.0))
        x = r.uniform(-200 * s, 200 * s, 64).astype(np.float64)
        y = qdq(x, s)
        in_range = np.abs(x) <= 127 * s
        # error bound inside the representable range
        assert (np.abs(x[in_range] - y[in_range]) <= s / 2 + 1e-9).all()
        # clamping outside
        assert (y <= 127 * s + 1e-9).all() and (y >= -128 * s - 1e-9).all()
        # monotonicity
        xs = np.sort(x)
        ys = qdq(xs, s)
        assert (np.diff(ys) >= -1e-9).all()
        # symmetry away from the asymmetric -128 bucket
        sym = np.abs(x) < 127.5 * s
        assert np.allclose(qdq(-x[sym], s), -qdq(x[sym], s), atol=1e-9)


    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, width=32), min_size=1, max_size=64),
           st.floats(1e-6, 1e3))
    def test_bit_identical_to_unfused_formula(self, values, s):
        x = np.array(values, np.float32)
        with np.errstate(over="ignore"):
            expected = (np.clip(np.rint(x / s), -128, 127) * s).astype(x.dtype)
            got = qdq(x, s)
        assert got.dtype == np.float32
        assert got.tobytes() == expected.tobytes()


def _edges(scale, dtype):
    """The clamp bounds ±QMAX·scale and QMIN·scale in ``dtype``, their neighbours
    one ulp either side, ±inf and NaN."""
    bounds = [dtype(b * scale) for b in (QMAX, -QMAX, QMIN)]
    return bounds + [np.nextafter(b, t, dtype=dtype) for b in bounds for t in (-np.inf, np.inf)] \
        + [dtype(np.inf), dtype(-np.inf), dtype(np.nan)]


@st.composite
def ste_cases(draw):
    """(x, scale): values anywhere, with the clamp edges mixed in, float32 or float64."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    scale = draw(st.floats(1e-3, 10.0))
    edges = _edges(scale, dtype)
    values = draw(st.lists(st.one_of(st.sampled_from(edges),
                                     st.floats(-2e3, 2e3, width=32)), min_size=1, max_size=64))
    return np.array(values, dtype), scale


class TestSte:
    @settings(max_examples=300, deadline=None)
    @given(ste_cases())
    def test_mask_is_the_two_comparisons(self, case):
        x, s = case
        inside = ste_mask(x, s)
        assert inside.dtype == np.bool_ and inside.nbytes == x.size
        assert inside.tobytes() == ((x >= QMIN * s) & (x <= QMAX * s)).tobytes()
        # NaN lies outside, so its gradient is zero
        assert not inside[np.isnan(x)].any()
        assert (qdq_backward(np.ones_like(x), inside)[np.isnan(x)] == 0).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_clamp_edges_and_their_neighbours(self, dtype):
        (hi, neg, lo, hi_dn, hi_up, neg_dn, neg_up, lo_dn, lo_up, inf, ninf, nan) = _edges(0.1, dtype)
        x = np.array([hi, hi_dn, hi_up, neg, neg_dn, neg_up, lo, lo_dn, lo_up, inf, ninf, nan], dtype)
        assert ste_mask(x, 0.1).tolist() == [True, True, False, True, True, True,
                                              True, False, True, False, False, False]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.floats(-2e3, 2e3, width=32),
                              st.floats(-1e3, 1e3, width=32)), min_size=1, max_size=64),
           st.floats(1e-3, 10.0))
    def test_bit_identical_to_mask_product(self, pairs, s):
        x, g = (np.array(col, np.float32) for col in zip(*pairs))
        expected = g * ((x >= -128 * s) & (x <= 127 * s))
        assert qdq_backward(g, ste_mask(x, s)).tobytes() == expected.tobytes()

    def test_in_range_passthrough_and_clip(self):
        x = np.array([0.5, 1000.0, -0.2], np.float32)
        g = np.ones_like(x)
        out = qdq_backward(g, ste_mask(x, 0.1))
        assert np.array_equal(out, [1.0, 0.0, 1.0])

    def test_far_out_of_range_zero(self):
        x = np.array([1000.0], np.float32)
        assert qdq_backward(np.ones(1, np.float32), ste_mask(x, 0.1))[0] == 0

    def test_taped_qdq_calls_the_module_functions(self, monkeypatch):
        # tracing patches each namespace that binds ``fakequant.qdq_backward``, its home
        # ``ops`` too, so the quantizer's rules must look it up there at call time
        calls = []
        monkeypatch.setattr(ops, "qdq_backward",
                            lambda g, inside: calls.append(inside.dtype) or qdq_backward(g, inside))
        x = np.array([[0.5, 1000.0, -0.2]], np.float32)
        _, backward = run_rule("fakequant", [x], {"phase": "active"},
                               {"amax": np.array([12.7], np.float32)})
        (gx,), _ = backward([np.ones_like(x)])
        assert calls == [np.bool_] and gx.tolist() == [[1.0, 0.0, 1.0]]


@st.composite
def observed_batches(draw):
    """Cauchy batches of float16, float32 or float64: sizes around and across the
    observer's chunk, some all zero; the last is the batch before it in float64 plus one
    cell of twice the largest |x| so far, which re-bins whenever a range is set."""
    sizes = st.one_of(st.integers(0, 300), st.integers(_CHUNK - 2, _CHUNK + 2),
                      st.integers(2 * _CHUNK, 3 * _CHUNK + 7))
    cases = draw(st.lists(st.tuples(sizes, st.sampled_from([np.float16, np.float32, np.float64]),
                                    st.sampled_from([0.0, 1e-3, 1.0, 30.0]),
                                    st.integers(0, 2**31 - 1)), min_size=1, max_size=4))
    with np.errstate(over="ignore"):  # a float16 tail cell may round to inf: the error path
        batches = [(scale * np.random.default_rng(seed).standard_cauchy(size)).astype(dtype)
                   for size, dtype, scale, seed in cases]
    top = max(np.abs(b.astype(np.float64)).max(initial=0.0) for b in batches)
    batches.append(np.append(batches[-1].astype(np.float64), 2 * top or 1.0))
    return batches


class TestObserver:
    def test_uniform_amax_sampling_oracle(self):
        a = 3.7
        r = np.random.default_rng(0)
        obs = HistogramObserver()
        for _ in range(10):
            obs.observe(r.uniform(-a, a, 100_000))
        amax = obs.amax()
        assert 0.999 * a <= amax <= a

    def test_constant_activation_exact(self):
        obs = HistogramObserver()
        obs.observe(np.full(1000, -0.625))
        assert obs.amax() == 0.625

    def test_growing_range_rebins(self):
        obs = HistogramObserver()
        obs.observe(np.full(100, 1.0))
        obs.observe(np.full(100, 4.0))
        assert obs.top == 4.0
        assert obs.counts.sum() == 200
        assert obs.amax() == 4.0

    def test_all_zero_returns_none(self):
        obs = HistogramObserver()
        obs.observe(np.zeros(100))
        assert obs.amax() is None

    @settings(max_examples=60, deadline=None)
    @given(observed_batches())
    def test_chunked_counts_equal_the_whole_batch_oracle(self, batches):
        obs, ref = HistogramObserver("q"), ReferenceObserver("q")
        for x in batches:
            try:
                ref.observe(x)
            except CalibrationError as e:
                with pytest.raises(CalibrationError) as got:
                    obs.observe(x)
                assert str(got.value) == str(e)
                return
            obs.observe(x)
            assert obs.counts.tobytes() == ref.counts.tobytes()
            assert (obs.top, obs.samples, obs.amax()) == (ref.top, ref.samples, ref.amax())

    def test_observe_scratch_does_not_grow_with_the_activation(self):
        """Four float64 copies of a (64, 3, 64, 64) float32 map would be 24 MiB."""
        r = np.random.default_rng(0)
        peaks = []
        for n in (16, 64):
            x = r.normal(size=(n, 3, 64, 64)).astype(np.float32)
            obs = HistogramObserver()
            obs.observe(x / 2)  # sets a range half as wide
            tracemalloc.start()
            try:
                obs.observe(x)  # a wider range: it re-bins, then counts
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 3 * 8 * _CHUNK < x.nbytes, peaks

    @pytest.mark.parametrize("values,bad", [([1.0, np.inf], 1), ([1.0, np.nan], 1),
                                            ([np.nan], 1), ([-np.inf, 2.0, np.nan], 2)])
    def test_non_finite_activation_names_quantizer_and_count(self, values, bad):
        obs = HistogramObserver("blk.conv__q")
        with pytest.raises(CalibrationError,
                           match=rf"'blk.conv__q' observed {bad} non-finite activation"):
            obs.observe(np.array(values, np.float32))


class TestInstrumentation:
    def build(self, seed=0):
        return build_mini_net("ecoweed_mini", (1, 3, 64, 64), 3, seed=seed)

    def test_one_quantizer_per_non_head_conv(self):
        g = self.build()
        gq = insert_fakequant(g)
        convs = [n for n in g.nodes.values() if n.kind == "conv" and not n.protected]
        assert len(quantizer_ids(gq)) == len(convs)
        head_convs = [n for n in gq.nodes.values() if n.kind == "conv" and n.protected]
        for n in head_convs:
            src = gq.node(n.inputs[0][0])
            assert src.kind != "fakequant"

    def test_disabled_forward_bit_identical(self, rng):
        g = self.build()
        gq = insert_fakequant(g)
        x = rng.normal(0.4, 0.2, (1, 3, 64, 64)).astype(np.float32)
        ya, yb = forward_arrays(g, x), forward_arrays(gq, x)
        for k in ya:
            assert ya[k].tobytes() == yb[k].tobytes()

    def test_double_instrumentation_rejected(self):
        g = insert_fakequant(self.build())
        with pytest.raises(QuantError, match="already instrumented"):
            insert_fakequant(g)

    def test_graph_without_convs_gets_no_quantizers(self):
        from slimgraph.builders import GraphBuilder
        b = GraphBuilder("id", (1, 3, 4, 4))
        x = b.add("input", "image", [])
        b.add("output", "out", [x])
        assert quantizer_ids(insert_fakequant(b.graph)) == []


class TestCalibration:
    def test_calibrate_activates_all_quantizers(self):
        task = ToyTask(seed=0, n_train=16)
        g = insert_fakequant(build_mini_net("ecoweed_mini", (1, 3, 64, 64), 3, seed=0))
        gc = calibrate(g, task.calibration_batches(2, 8))
        rows = calibration_rows(gc)
        assert len(rows) == len(quantizer_ids(gc))
        for qid, amax, scale, samples in rows:
            assert amax > 0 and scale == pytest.approx(amax / 127.0) and samples > 0
            assert gc.node(qid).attrs["phase"] == "active"

    def test_determinism(self):
        task = ToyTask(seed=0, n_train=16)
        g = insert_fakequant(build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0))
        a = calibration_rows(calibrate(g, task.calibration_batches(2, 8)))
        b = calibration_rows(calibrate(g, task.calibration_batches(2, 8)))
        assert a == b

    def test_zero_activations_error_names_node(self):
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)
        gq = insert_fakequant(g)
        batches = [np.zeros((2, 3, 64, 64), np.float32)]
        # zero input + zero first-conv bias keeps the first quantizer silent
        with pytest.raises(CalibrationError, match="s0.conv__q"):
            calibrate(gq, batches)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_uninstrumented_graph_is_instrumented_first(self, preset):
        g = build_mini_net(preset, (1, 3, 64, 64), 3, seed=0)
        batches = ToyTask(seed=0, n_train=16).calibration_batches(1, 8)
        gc = calibrate(g, batches)
        assert not quantizer_ids(g) and quantizer_ids(gc) == quantizer_ids(insert_fakequant(g))
        assert to_bytes(gc) == to_bytes(calibrate(insert_fakequant(g), batches))

    def test_graph_with_only_protected_convs_raises(self):
        b = GraphBuilder("protected", (1, 3, 4, 4))
        b.add("output", "out", [b.conv(b.add("input", "image", []), 3, 2, 1, protected=True)])
        with pytest.raises(QuantError, match="no quantizers to calibrate"):
            calibrate(b.graph, [np.ones((1, 3, 4, 4), np.float32)])

    def test_non_finite_batch_error_names_node(self):
        gq = insert_fakequant(build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0))
        batch = np.ones((2, 3, 64, 64), np.float32)
        batch[1, 2, 5, 7] = np.inf
        with pytest.raises(CalibrationError, match="'s0.conv__q' observed 1 non-finite"):
            calibrate(gq, [batch])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_cell_on_a_small_map_counts_only_its_outputs(self, bad):
        b = GraphBuilder("small", (1, 3, 8, 8), seed=0)
        y = b.conv(b.add("input", "image", []), 3, 4, k=3, prefix="stem", protected=True)
        b.add("output", "out", [b.conv(y, 4, 2, k=3, prefix="next")])
        batch = np.ones((2, 3, 8, 8), np.float32)
        batch[1, 2, 3, 4] = bad
        # the 3x3 stem outputs that read the cell, in each of its 4 channels; NaN spread
        # over the cell's whole (image, channel) row would make it 4 * 64
        with pytest.raises(CalibrationError, match="'next__q' observed 36 non-finite"):
            calibrate(insert_fakequant(b.graph), [batch])

    def test_runs_only_the_convs_that_feed_a_quantizer(self, monkeypatch):
        g = insert_fakequant(build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0))
        needed = g.ancestors_of(quantizer_ids(g))
        convs = [n for n in g.nodes.values() if n.kind == "conv"]
        feeding = {n.id for n in convs if n.id in needed}
        assert not any(n.protected for n in convs if n.id in feeding)
        # the last backbone conv feeds only the heads: no quantizer needs it
        assert {n.id for n in convs if not n.protected} - feeding == {"s10.cv2.conv"}
        calls = []
        real = ops.conv2d_forward
        monkeypatch.setattr(ops, "conv2d_forward",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        calibrate(g, ToyTask(seed=0, n_train=16).calibration_batches(3, 4))
        assert len(calls) == 3 * len(feeding) == 3 * 21

    def test_needs_at_least_one_batch(self):
        g = insert_fakequant(build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0))
        with pytest.raises(CalibrationError, match="at least one batch"):
            calibrate(g, [])

    def test_recalibration_resets_and_reactivates(self):
        task = ToyTask(seed=0, n_train=16)
        g = insert_fakequant(build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0))
        g1 = calibrate(g, task.calibration_batches(1, 8))
        g2 = calibrate(g1, task.calibration_batches(2, 8))
        for qid in quantizer_ids(g2):
            assert g2.node(qid).attrs["phase"] == "active"

    @pytest.mark.parametrize("amax", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_active_quantizer_needs_positive_finite_amax(self, amax):
        task = ToyTask(seed=0, n_train=16)
        g = calibrate(insert_fakequant(build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)),
                      task.calibration_batches(1, 8))
        qid = quantizer_ids(g)[-1]
        g.node(qid).params["amax"][0] = amax
        with pytest.raises(QuantError, match=f"quantizer '{qid}' is active but its amax"):
            forward_arrays(g, task.val_images[:2])


class TestExportFp16:
    def test_exact_halves_have_zero_cast_error(self):
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)
        for n in g.nodes.values():
            for pname, arr in n.params.items():
                n.params[pname] = np.round(arr * 4) / 4  # quarter grid is f16-exact
        _, report = export_fp16(g)
        assert all(err == 0.0 for _, err in report)

    def test_random_weights_match_binary16_bound(self, rng):
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=3)
        w = g.node("s0.conv").params["weight"]
        cast = cast_fp16(w).astype(np.float32)
        err = np.abs(w - cast)
        # normals: rel error <= 2^-11; subnormals: abs error <= 2^-25
        bound = np.maximum(np.abs(w) * 2.0 ** -11, 2.0 ** -25)
        assert (err <= bound).all()
        # bit-exact against the software oracle
        ours = np.array([f32_to_f16_bits(float(v)) for v in w.ravel()[:256]], np.uint16)
        assert np.array_equal(ours, cast_fp16(w.ravel()[:256]).view(np.uint16))

    @pytest.mark.parametrize("name", [f"{p}-{v}" for p in PRESETS for v in ("plain", "calibrated")])
    def test_report_is_each_tensors_cast_error_in_params_order(self, name):
        g = settled_graph(name)
        want = [(f"{n.id}.{k}", float(np.abs(a - a.astype(np.float16).astype(np.float32)).max())
                 if a.size else 0.0) for n in g.nodes.values() for k, a in n.params.items()]
        data, report = export_fp16(g)
        assert report == want and any(err > 0 for _, err in report)
        assert data == reference_to_bytes(g, 16)

    def test_overflow_rejected(self):
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)
        g.node("s0.conv").params["weight"][0, 0, 0, 0] = 70000.0
        with pytest.raises(ExportError, match="overflows half"):
            export_fp16(g)

    def test_nonfinite_rejected(self):
        g = build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0)
        g.node("s0.conv").params["weight"][0, 0, 0, 0] = np.nan
        with pytest.raises(ExportError, match="non-finite"):
            export_fp16(g)


class TestSteEndToEnd:
    def test_instrumented_net_gradient_vs_finite_differences(self):
        """One conv behind an active quantizer, activations far inside the
        clamp range with the quantization step tiny relative to the FD step."""
        from conftest import finite_difference, rel_close
        r = np.random.default_rng(5)
        x0 = (r.uniform(0.2, 0.9, (1, 2, 4, 4)) * 1e-3).astype(np.float64)
        w0 = r.uniform(0.3, 1.0, (2, 2, 3, 3)) * r.choice([-1.0, 1.0], (2, 2, 3, 3))
        scale = 2e-5  # amax = 127*s = 2.54e-3 comfortably above activations

        def forward(x):
            """sum(conv(qdq(x))), and the backward rules of the quantizer and the conv."""
            q, q_backward = run_rule("fakequant", [x], {"phase": "active"},
                                     {"amax": np.array([127 * scale])})
            y, conv_backward = run_rule("conv", [q], {"padding": 1}, {"weight": w0})
            return y.sum(), q_backward, conv_backward

        _, q_backward, conv_backward = forward(x0)
        (gq,), _ = conv_backward([np.ones((1, 2, 4, 4))])
        (gx,), _ = q_backward([gq])
        fd = finite_difference(lambda x: float(forward(x)[0]), x0.copy(), h=1e-3)
        # mask coordinates whose FD interval could cross the clamp edge
        mask = np.abs(x0) < 127 * scale - 1.5e-3
        assert mask.all()
        assert rel_close(gx[mask], fd[mask], 1e-2)
