"""Gradient checks: each kind's backward rule against central finite differences of its
forward rule, and the tape over taped runs."""

import numpy as np
import pytest

from conftest import finite_difference, images, rel_close, run_rule
from slimgraph import autograd as ag
from slimgraph import build_mini_net, ops, run_graph
from slimgraph.builders import GraphBuilder
from slimgraph.errors import GraphError, ShapeError
from slimgraph.executor import RunState
from slimgraph.fakequant import calibrate, insert_fakequant, quantizer_ids
from slimgraph.graph import trainable_items
from slimgraph.kinds import SPECS

H = 1e-3
TOL = 1e-3


def _ports(out):
    return out if isinstance(out, list) else [out]


def check_rule(kind, ins, attrs=None, params=None, tol=TOL, seeds=3):
    """FD-checks ``kind``'s backward rule: the gradient of sum_p(out_p * r_p), with fixed
    random weights r_p per output port, with respect to every input and trained tensor.
    ``ins`` and ``params`` hold arrays or functions of a random generator."""
    params = params or {}
    trained = [name for name in SPECS[kind].trainable if name in params]
    for trial in range(seeds):
        r = np.random.default_rng(100 + trial)
        xs = [a(r) if callable(a) else a.copy() for a in ins]
        ps = {k: a(r) if callable(a) else a.copy() for k, a in params.items()}
        out, backward = run_rule(kind, xs, attrs, ps)
        weights = [r.normal(size=o.shape) for o in _ports(out)]
        into_ins, into_tensors = backward(weights)

        def loss(_):
            return float(sum((o * w).sum() for o, w in zip(_ports(run_rule(kind, xs, attrs, ps)[0]),
                                                             weights)))
        for i, x in enumerate(xs):
            assert rel_close(into_ins[i], finite_difference(loss, x, H), tol), f"{kind} input {i}"
        for name in trained:
            assert rel_close(into_tensors[name], finite_difference(loss, ps[name], H), tol), \
                f"{kind} tensor {name}"


def rnd(shape):
    return lambda r: r.normal(size=shape)


def separated(shape):
    """Values on a grid wider than the FD step, so no step crosses a tie within a window."""
    return lambda r: r.permutation(np.arange(np.prod(shape)) * 0.05).reshape(shape)


def straddling(r):
    """Well inside an amax of 1.27e-3 (scale 1e-5) even after an FD step, or far outside."""
    x = r.uniform(-2e-4, 2e-4, (1, 2, 3, 3))
    x[0, 0, 0] = [6e-3, -6e-3, 9e-3]
    return x


_BN_PARAMS = {"gamma": rnd(3), "beta": rnd(3), "running_mean": np.zeros(3), "running_var": np.ones(3)}

# kind -> [(inputs, attrs, params, tolerance)], each a finite-difference check of its rules
CASES = {
    "input": [],  # reads only the batch, pure data: TestTapeSemantics checks it takes no gradient
    "output": [([rnd((2, 3, 2, 2))],)],
    "conv": [([rnd((2, 2, 5, 5))], {"stride": 2, "padding": 1},
              {"weight": rnd((3, 2, 3, 3)), "bias": rnd(3)}),
             ([rnd((1, 3, 4, 4))], {}, {"weight": rnd((2, 3, 1, 1))})],
    "batchnorm": [([rnd((2, 3, 4, 4))], {}, _BN_PARAMS)],
    "activation": [([rnd((2, 3, 4, 4))], {"fn": "silu"}), ([rnd((2, 3, 4, 4))], {"fn": "sigmoid"})],
    "maxpool": [([separated((1, 1, 8, 8))], {"k": 2}),
                ([separated((1, 1, 8, 8))], {"k": 3, "stride": 1, "padding": 1})],
    "gap": [([rnd((2, 3, 3, 3))],)],
    "linear": [([rnd((3, 4))], {}, {"weight": rnd((2, 4)), "bias": rnd(2)}),
               ([rnd((3, 4))], {}, {"weight": rnd((2, 4))})],
    "concat": [([rnd((1, 2, 2, 2)), rnd((1, 3, 2, 2))],)],
    "add": [([rnd((2, 3, 2, 2))] * 2,), ([rnd((2, 3, 2, 2))] * 3,)],
    "mul": [([rnd((2, 3, 2, 2))] * 2,), ([rnd((2, 3, 2, 2))] * 3,)],
    "addconst": [([rnd((2, 3, 2, 2))], {"c": -0.5})],
    "split": [([rnd((1, 4, 2, 2))], {"sizes": [2, 2]}), ([rnd((1, 5, 2, 2))], {"sizes": [1, 3, 1]})],
    "scale": [([rnd((2, 3, 2, 2))], {}, {"scale": rnd(3)})],
    "fakequant": [([rnd((2, 3, 2, 2))], {"phase": "disabled"}, {"amax": np.zeros(1)}),
                  ([straddling], {"phase": "active"}, {"amax": np.array([1.27e-3])}, 1e-2)],
}


@pytest.mark.parametrize("kind", list(SPECS))
def test_backward_rule_matches_finite_differences(kind):
    # a kind without a backward rule or without a check here fails
    assert (SPECS[kind].backward is None) == (SPECS[kind].arity == 0), kind
    assert CASES[kind] or SPECS[kind].arity == 0, kind
    for case in CASES[kind]:
        check_rule(kind, *case)


class TestPrimitiveGradients:
    def test_conv2d(self):
        for case in CASES["conv"]:
            check_rule("conv", *case)

    def test_linear_loss_gradient_is_input(self):
        # loss = sum(w . x) with x fixed: dL/dw = x exactly
        x = np.random.default_rng(1).normal(size=(1, 6))
        w = np.random.default_rng(2).normal(size=(1, 6))
        _, backward = run_rule("linear", [x], params={"weight": w})
        assert np.allclose(backward([np.ones((1, 1))])[1]["weight"], x)

    def test_linear(self):
        for case in CASES["linear"]:
            check_rule("linear", *case)

    def test_batchnorm_train_mode(self):
        check_rule("batchnorm", *CASES["batchnorm"][0])

    def test_silu_and_sigmoid(self):
        for case in CASES["activation"]:
            check_rule("activation", *case)

    def test_add_mul_addconst_scale(self):
        for kind in ("add", "mul", "addconst", "scale"):
            for case in CASES[kind]:
                check_rule(kind, *case)

    def test_concat_split(self):
        for kind in ("concat", "split"):
            for case in CASES[kind]:
                check_rule(kind, *case)

    def test_split_port_without_gradient(self):
        # a port no loss reads passes None: only the other's slice takes a gradient
        x = np.arange(8.0).reshape(1, 4, 1, 2)
        _, backward = run_rule("split", [x], {"sizes": [1, 3]})
        g = np.full((1, 3, 1, 2), 2.0)
        (gx,), _ = backward([None, g])
        assert gx.tolist() == np.concatenate([np.zeros((1, 1, 1, 2)), g], axis=1).tolist()

    def test_identity(self):
        # an output and a disabled quantizer pass the gradient on unchanged
        check_rule("output", *CASES["output"][0])
        check_rule("fakequant", *CASES["fakequant"][0])

    def test_maxpool(self):
        for case in CASES["maxpool"]:
            check_rule("maxpool", *case)

    def test_global_avg_pool(self):
        check_rule("gap", *CASES["gap"][0])

    def test_softmax_cross_entropy(self):
        labels = np.array([0, 2, 1])
        for trial in range(3):
            z0 = np.random.default_rng(100 + trial).normal(size=(3, 4))
            tape, z = ag.Tape(), ag.Var(z0.copy())
            ag.backward(tape, ag.softmax_cross_entropy(tape, z, labels))
            fd = finite_difference(
                lambda v: float(ag.softmax_cross_entropy(None, ag.Var(v), labels).value), z0, H)
            assert rel_close(z.grad, fd, TOL)


def _residual_graph():
    """input -> conv a -> silu -> conv b, and add(a, b) -> gap -> linear -> cls; a second
    head off conv a that no loss reads. Conv a's output is read twice."""
    b = GraphBuilder("reuse", (2, 2, 4, 4), seed=3, meta={"cls_output": "cls"})
    a = b.conv(b.add("input", "image", []), 2, 2, k=3, prefix="a")
    y = b.add("add", "res", [a, b.conv(b.act(a), 2, 2, k=3, prefix="b")])
    fc = b.add("linear", "fc", [b.add("gap", "pool", [y])],
               params={"weight": b.linear_weight(3, 2), "bias": np.zeros(3, np.float32)})
    b.add("output", "cls", [fc])
    b.add("output", "det", [b.conv(a, 2, 1, k=1, prefix="det")])
    b.graph.validate()
    return b.graph


def _step(g, x, labels, outputs=("cls",), values=None):
    """One taped run and backward on float64 copies of the trained tensors."""
    state = RunState({k: ag.Var((values or {}).get(k, a).astype(np.float64))
                      for k, a in trainable_items(g)}, {})
    tape = ag.Tape()
    out = run_graph(g, x, mode="train", tape=tape, state=state, outputs=list(outputs))
    loss = ag.softmax_cross_entropy(tape, out["cls"], labels)
    ag.backward(tape, loss)
    return state, tape, out, loss


class TestTapeSemantics:
    def test_parameter_used_twice_sums_both_paths(self):
        # conv a's output reaches the loss through the add directly and through conv b
        g, labels = _residual_graph(), np.array([0, 2])
        x = images((2, 2, 4, 4)).astype(np.float64)
        state, *_ = _step(g, x, labels)
        w0 = g.node("a").params["weight"].astype(np.float64)

        def f(w):
            return float(_step(g, x, labels, values={("a", "weight"): w})[3].value)
        assert rel_close(state.vars[("a", "weight")].grad, finite_difference(f, w0.copy(), H), TOL)

    def test_untouched_var_grad_stays_none(self):
        g = _residual_graph()
        tape, state = ag.Tape(), RunState({k: ag.Var(a.copy()) for k, a in trainable_items(g)}, {})
        out = run_graph(g, images((2, 2, 4, 4)), mode="train", tape=tape, state=state,
                        outputs=["cls", "det"])
        assert ag.backward(tape, ag.softmax_cross_entropy(tape, out["cls"], np.array([0, 1]))) is None
        assert state.vars[("a", "weight")].grad is not None
        assert state.vars[("det", "weight")].grad is None and out["det"].grad is None

    def test_a_tape_runs_backward_once(self):
        # a second pass over kept records and gradients would make w.grad three times the first
        state, tape, _, loss = _step(_residual_graph(), images((2, 2, 4, 4)), np.array([0, 1]))
        w = state.vars[("b", "weight")]
        first = w.grad.copy()
        with pytest.raises(GraphError, match="backward already"):
            ag.backward(tape, loss)
        assert np.array_equal(w.grad, first)

    def test_backward_consumes_the_tape_and_leaves_keep_their_gradients(self):
        g = _residual_graph()
        state, tape, out, loss = _step(g, images((2, 2, 4, 4)), np.array([0, 1]))
        # a record for each node but the batch, and one for the loss: counted, then consumed
        assert len(tape) == len(g.ancestors_of(["cls"]))
        assert tape._records == [] and tape._losses == []
        assert out["cls"].grad is None and loss.grad is None
        assert all(v.grad is not None for k, v in state.vars.items() if k[0] != "det")

    def test_stop_grad_qdq_records_nothing(self, monkeypatch):
        # the batch is pure data, and so is its quantizer's output: neither is recorded, the
        # quantizer takes no clip mask, and the conv reading it computes no input gradient
        g = calibrate(insert_fakequant(build_mini_net("y11_mini", (2, 3, 64, 64), 3, seed=0)),
                      [images((2, 3, 64, 64))])
        stem_q = [q for q in quantizer_ids(g) if g.node(q).inputs[0][0] == "image"]
        masks, need_gx, mask, conv_backward = [], [], ops.ste_mask, ops.conv2d_backward
        monkeypatch.setattr(ops, "ste_mask", lambda x, s: masks.append(x) or mask(x, s))
        monkeypatch.setattr(ops, "conv2d_backward", lambda *a, need_gx, **kw: need_gx_of(
            need_gx, conv_backward(*a, need_gx=need_gx, **kw)))

        def need_gx_of(flag, result):
            need_gx.append(flag)
            return result
        state = RunState({k: ag.Var(a.copy()) for k, a in trainable_items(g)}, {})
        tape = ag.Tape()
        out = run_graph(g, images((2, 3, 64, 64)), mode="train", tape=tape, state=state,
                        outputs=[g.meta["cls_output"]])
        recorded = [n.id for n, *_ in tape._records]
        assert len(stem_q) == 1 and stem_q[0] not in recorded and "image" not in recorded
        assert len(masks) == len(quantizer_ids(g)) - 1
        ag.backward(tape, ag.softmax_cross_entropy(tape, out[g.meta["cls_output"]],
                                                   np.array([0, 1])))
        assert need_gx[-1] is False and all(need_gx[:-1])  # the stem conv runs backward last
        # nor is an output that passes the batch on
        b = GraphBuilder("raw", (2, 3, 4, 4))
        b.add("output", "raw", [b.add("input", "image", [])])
        tape = ag.Tape()
        run_graph(b.graph, images((2, 3, 4, 4)), mode="train", tape=tape, state=RunState({}, {}))
        assert len(tape) == 0

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

    @pytest.mark.parametrize("spent", [False, True])
    def test_a_tape_records_one_run(self, spent):
        # records are keyed by slot, and two runs' slot numbers would collide
        g = _residual_graph()
        state, tape, *_ = _step(g, images((2, 2, 4, 4)), np.array([0, 1]))
        if not spent:
            tape = ag.Tape()
            run_graph(g, images((2, 2, 4, 4)), mode="train", tape=tape, state=state)
        made = len(tape)
        with pytest.raises(GraphError, match="records one run"):
            run_graph(g, images((2, 2, 4, 4)), mode="train", tape=tape, state=state)
        assert len(tape) == made
