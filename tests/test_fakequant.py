"""Quantizer lifecycle, calibration, QDQ semantics, STE, fp16 export."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slimgraph import autograd as ag
from slimgraph import build_mini_net, forward_arrays
from slimgraph.errors import CalibrationError, ExportError, QuantError
from slimgraph.fakequant import (HistogramObserver, calibrate, calibration_rows,
                                 cast_fp16, export_fp16, insert_fakequant, qdq,
                                 qdq_backward, quantizer_ids, set_phase)
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


class TestSte:
    def test_in_range_passthrough_and_clip(self):
        x = np.array([0.5, 1000.0, -0.2], np.float32)
        g = np.ones_like(x)
        out = qdq_backward(g, x, 0.1)
        assert np.array_equal(out, [1.0, 0.0, 1.0])

    def test_far_out_of_range_zero(self):
        assert qdq_backward(np.ones(1, np.float32), np.array([1000.0], np.float32), 0.1)[0] == 0


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

    def test_observe_forward_bit_identical_to_disabled(self, rng):
        g = insert_fakequant(self.build())
        x = rng.normal(0.4, 0.2, (1, 3, 64, 64)).astype(np.float32)
        ya = forward_arrays(g, x)
        yb = forward_arrays(set_phase(g, "observe"), x)
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

    def test_non_finite_batch_error_names_node(self):
        gq = insert_fakequant(build_mini_net("y11_mini", (1, 3, 64, 64), 3, seed=0))
        batch = np.ones((2, 3, 64, 64), np.float32)
        batch[1, 2, 5, 7] = np.inf
        with pytest.raises(CalibrationError, match="'s0.conv__q' observed 1 non-finite"):
            calibrate(gq, [batch])

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

        def loss_fn(tape, xv, wv):
            q = ag.qdq(tape, xv, scale)
            y = ag.conv2d(tape, q, wv, None, 1, 1)
            out = ag.Var(np.asarray(y.value.sum()))
            if tape is not None:
                def grad(g):
                    y.grad = np.full_like(y.value, float(g)) if y.grad is None \
                        else y.grad + float(g)
                tape.record(out, grad)
            return out

        tape = ag.Tape()
        xv = tape.watch(ag.Var(x0.copy()), "x")
        wv = tape.watch(ag.Var(w0.copy()), "w")
        grads = ag.backward(tape, loss_fn(tape, xv, wv))

        def f(x):
            return float(loss_fn(None, ag.Var(x), ag.Var(w0)).value)
        fd = finite_difference(f, x0.copy(), h=1e-3)
        # mask coordinates whose FD interval could cross the clamp edge
        mask = np.abs(x0) < 127 * scale - 1.5e-3
        assert mask.all()
        assert rel_close(grads["x"][mask], fd[mask], 1e-2)
