"""Gradient checks: every primitive against central finite differences."""

import numpy as np
import pytest

from conftest import finite_difference, rel_close
from slimgraph import autograd as ag
from slimgraph import build_mini_net, ops, run_graph
from slimgraph.errors import GraphError, ShapeError

H = 1e-3
TOL = 1e-3


def check_grad(build_loss, arrays, seeds=3):
    """build_loss(tape, vars) -> scalar Var; FD-checks every input array."""
    for trial in range(seeds):
        r = np.random.default_rng(100 + trial)
        vals = [a(r) if callable(a) else a.copy() for a in arrays]
        tape = ag.Tape()
        vars_ = [ag.Var(v.copy()) for v in vals]
        ag.backward(tape, build_loss(tape, vars_))
        for i, v in enumerate(vals):
            if vars_[i].grad is None:
                continue
            def f(x, i=i):
                vs = [x if j == i else vals[j] for j in range(len(vals))]
                t2 = ag.Tape()
                return float(build_loss(t2, [ag.Var(u) for u in vs]).value)
            fd = finite_difference(f, v.astype(np.float64), H)
            assert rel_close(vars_[i].grad, fd, TOL), f"gradient mismatch for input {i}"


def weighted_sum(tape, y, r):
    """Scalar loss sum(y * r) with fixed weights, differentiable through y."""
    prod = ag.multiply(tape, y, ag.Var(r))
    # reduce via global sum: reuse numpy and a manual closure-free reduction
    out = ag.Var(np.asarray(prod.value.sum()))
    if tape is not None:
        def grad(g):
            prod.grad = np.full_like(prod.value, float(g)) if prod.grad is None \
                else prod.grad + float(g)
        tape.record(out, grad)
    return out


def rnd(shape):
    return lambda r: r.normal(size=shape)


class TestPrimitiveGradients:
    def test_conv2d(self):
        r_out = np.random.default_rng(7).normal(size=(2, 3, 3, 3))
        check_grad(
            lambda t, v: weighted_sum(t, ag.conv2d(t, v[0], v[1], v[2], stride=2, padding=1), r_out),
            [rnd((2, 2, 5, 5)), rnd((3, 2, 3, 3)), rnd(3)])

    def test_linear_loss_gradient_is_input(self):
        # loss = sum(w . x) with x fixed: dL/dw = x exactly
        x = np.random.default_rng(1).normal(size=(1, 6))
        tape = ag.Tape()
        w = ag.Var(np.random.default_rng(2).normal(size=(1, 6)))
        y = ag.linear(tape, ag.Var(x), w, None)
        ag.backward(tape, weighted_sum(tape, y, np.ones_like(y.value)))
        assert np.allclose(w.grad, x)

    def test_linear(self):
        r_out = np.random.default_rng(8).normal(size=(3, 2))
        check_grad(
            lambda t, v: weighted_sum(t, ag.linear(t, v[0], v[1], v[2]), r_out),
            [rnd((3, 4)), rnd((2, 4)), rnd(2)])

    def test_batchnorm_train_mode(self):
        r_out = np.random.default_rng(10).normal(size=(2, 3, 4, 4))
        check_grad(
            lambda t, v: weighted_sum(
                t, ag.batchnorm(t, v[0], v[1], v[2], None, None, 1e-5, training=True)[0], r_out),
            [rnd((2, 3, 4, 4)), rnd(3), rnd(3)])

    def test_silu_and_sigmoid(self):
        r_out = np.random.default_rng(11).normal(size=(2, 3, 4, 4))
        check_grad(lambda t, v: weighted_sum(t, ag.silu(t, v[0]), r_out), [rnd((2, 3, 4, 4))])
        check_grad(lambda t, v: weighted_sum(t, ag.sigmoid(t, v[0]), r_out), [rnd((2, 3, 4, 4))])

    def test_add_mul_addconst_scale(self):
        r_out = np.random.default_rng(12).normal(size=(2, 3, 2, 2))
        check_grad(lambda t, v: weighted_sum(t, ag.add(t, v[0], v[1]), r_out),
                   [rnd((2, 3, 2, 2)), rnd((2, 3, 2, 2))])
        check_grad(lambda t, v: weighted_sum(t, ag.multiply(t, v[0], v[1]), r_out),
                   [rnd((2, 3, 2, 2)), rnd((2, 3, 2, 2))])
        check_grad(lambda t, v: weighted_sum(t, ag.add_const(t, v[0], -0.5), r_out),
                   [rnd((2, 3, 2, 2))])
        check_grad(lambda t, v: weighted_sum(t, ag.scale_channels(t, v[0], v[1]), r_out),
                   [rnd((2, 3, 2, 2)), rnd(3)])

    def test_concat_split(self):
        r_out = np.random.default_rng(13).normal(size=(1, 5, 2, 2))
        check_grad(lambda t, v: weighted_sum(t, ag.concat_channels(t, [v[0], v[1]]), r_out),
                   [rnd((1, 2, 2, 2)), rnd((1, 3, 2, 2))])
        r_half = np.random.default_rng(14).normal(size=(1, 2, 2, 2))
        check_grad(
            lambda t, v: weighted_sum(t, ag.split_channels(t, v[0], [2, 2])[1], r_half),
            [rnd((1, 4, 2, 2))])

    def test_identity(self):
        r_out = np.random.default_rng(18).normal(size=(2, 3, 2, 2))
        check_grad(lambda t, v: weighted_sum(t, ag.identity(t, v[0]), r_out), [rnd((2, 3, 2, 2))])

    def test_identity_is_a_new_var_on_the_same_array(self):
        tape, x = ag.Tape(), ag.Var(np.ones(3))
        y = ag.identity(tape, x)
        assert y is not x and y.value is x.value and len(tape) == 1
        data = ag.Var(np.ones(3), stop_grad=True)  # pure data records nothing
        assert ag.identity(tape, data).stop_grad and len(tape) == 1

    def test_maxpool(self):
        # elements drawn from a well-separated grid so the FD step cannot
        # cross a tie between window elements
        def sep(r):
            vals = np.arange(64, dtype=np.float64) * 0.05
            return r.permutation(vals).reshape(1, 1, 8, 8)
        r_out = np.random.default_rng(15).normal(size=(1, 1, 4, 4))
        check_grad(lambda t, v: weighted_sum(t, ag.maxpool2d(t, v[0], 2, 2, 0), r_out), [sep])
        r_out2 = np.random.default_rng(16).normal(size=(1, 1, 8, 8))
        check_grad(lambda t, v: weighted_sum(t, ag.maxpool2d(t, v[0], 3, 1, 1), r_out2), [sep])

    def test_global_avg_pool(self):
        r_out = np.random.default_rng(17).normal(size=(2, 3))
        check_grad(lambda t, v: weighted_sum(t, ag.global_avg_pool(t, v[0]), r_out),
                   [rnd((2, 3, 3, 3))])

    def test_softmax_cross_entropy(self):
        labels = np.array([0, 2, 1])
        check_grad(lambda t, v: ag.softmax_cross_entropy(t, v[0], labels), [rnd((3, 4))])


class TestTapeSemantics:
    def test_parameter_used_twice_sums_both_paths(self):
        # residual reuse: y = conv(x, w) + conv(silu(conv(x, w)), v)
        r = np.random.default_rng(20)
        x = r.normal(size=(1, 2, 4, 4))
        w0 = r.normal(size=(2, 2, 3, 3))
        v0 = r.normal(size=(2, 2, 3, 3))
        r_out = r.normal(size=(1, 2, 4, 4))

        def loss_fn(tape, vars_):
            w, v = vars_
            a = ag.conv2d(tape, ag.Var(x), w, None, 1, 1)
            b = ag.conv2d(tape, ag.silu(tape, a), v, None, 1, 1)
            return weighted_sum(tape, ag.add(tape, a, b), r_out)

        tape = ag.Tape()
        wv, vv = ag.Var(w0.copy()), ag.Var(v0.copy())
        ag.backward(tape, loss_fn(tape, [wv, vv]))

        def f(wx):
            t2 = ag.Tape()
            return float(loss_fn(t2, [ag.Var(wx), ag.Var(v0)]).value)
        fd = finite_difference(f, w0.copy(), H)
        assert rel_close(wv.grad, fd, TOL)

    def test_untouched_var_grad_stays_none(self):
        tape = ag.Tape()
        used, unused = ag.Var(np.ones((1, 2))), ag.Var(np.ones((1, 2)))
        loss = ag.softmax_cross_entropy(tape, ag.linear(tape, ag.Var(np.ones((1, 2))), used, None),
                                        np.array([0]))
        assert ag.backward(tape, loss) is None
        assert used.grad is not None and unused.grad is None

    def test_a_tape_runs_backward_once(self):
        # a second pass over kept records and gradients would make w.grad three times the first
        tape = ag.Tape()
        x = ag.Var(np.array([[0.3, -0.2]]), stop_grad=True)
        w = ag.Var(np.array([[0.1, 0.2], [-0.3, 0.05]]))
        loss = ag.softmax_cross_entropy(tape, ag.linear(tape, x, w, None), np.array([0]))
        ag.backward(tape, loss)
        first = w.grad.copy()
        with pytest.raises(GraphError, match="backward already"):
            ag.backward(tape, loss)
        assert np.array_equal(w.grad, first)

    def test_backward_consumes_the_tape_and_leaves_keep_their_gradients(self):
        tape = ag.Tape()
        x, w = ag.Var(np.ones((2, 3))), ag.Var(np.full((4, 3), 0.5))
        hidden = ag.linear(tape, x, w, None)
        loss = ag.softmax_cross_entropy(tape, ag.sigmoid(tape, hidden), np.array([0, 1]))
        ag.backward(tape, loss)
        assert len(tape) == 3 and tape._records == []  # counted, then consumed
        assert hidden.grad is None and loss.grad is None
        assert x.grad is not None and w.grad is not None

    def test_stop_grad_qdq_records_nothing(self, monkeypatch):
        # pure data stays pure data through a quantizer, and nothing is taped or masked for it
        monkeypatch.setattr(ops, "ste_mask", None)
        tape = ag.Tape()
        out = ag.qdq(tape, ag.Var(np.ones((1, 2, 2, 2), np.float32), stop_grad=True), 0.1)
        assert out.stop_grad and len(tape) == 0

    def test_non_scalar_loss_rejected(self):
        tape = ag.Tape()
        v = ag.Var(np.ones((2, 2)))
        with pytest.raises(ShapeError, match="scalar"):
            ag.backward(tape, v)

    @pytest.mark.parametrize("mode", ["eval", "calibrate"])
    def test_run_graph_refuses_a_tape_outside_train_mode(self, mode):
        # batchnorm records no gradient with stored or calibration statistics
        g = build_mini_net("y11_mini", (2, 3, 64, 64), 3, seed=0)
        with pytest.raises(GraphError, match=f"not mode={mode!r}"):
            run_graph(g, np.zeros((2, 3, 64, 64), np.float32), mode=mode, tape=ag.Tape())
