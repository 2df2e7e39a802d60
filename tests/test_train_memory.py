"""What a training step holds in memory, and that releasing it changes no result.

A taped ``run_graph`` frees each activation after its last reader, as an untaped one
does: only the tape holds what backward reads, and ``backward`` consumes it. SiLU
saves only its derivative and a quantizer only its clip mask. ``train_reference``
keeps the retaining and capturing versions, under which every gradient and trained
tensor must come out bit for bit the same.
"""

import dataclasses
import functools
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

import train_reference
from conftest import FRAGMENTS, fragment_graph, images, preset_graph
from slimgraph import autograd as ag
from slimgraph import build_mini_net, executor, fakequant, forward_arrays, ops
from slimgraph import pipeline as pl
from slimgraph.builders import PRESETS, GraphBuilder
from slimgraph.executor import RunState, run_graph
from slimgraph.fakequant import calibrate, insert_fakequant
from slimgraph.graph import buffer_items, trainable_items
from slimgraph.kinds import SPECS

BATCH = 16

# tracemalloc peak of one batch-16 QAT step, measured at 16.8 / 13.3 / 13.3 MiB; when
# SiLU kept its operands and qdq its input: 20.7 / 16.8 / 16.8; when the tape retained
# every activation until the step returned: 36.4 / 30.4 / 30.7
STEP_PEAK_MIB = {"ecoweed_mini": 18.3, "y11_mini": 14.5, "y12_mini": 14.5}


@functools.cache
def _task():
    return pl.ToyTask(seed=0)


@functools.cache
def _qat_graph(preset):
    """The preset at batch 16 with calibrated active quantizers (shared: do not mutate)."""
    g = build_mini_net(preset, (BATCH, 3, 64, 64), 3, seed=0)
    return calibrate(insert_fakequant(g), _task().calibration_batches(1, BATCH))


def _batches(task, steps):
    epochs = (task.batches(epoch, BATCH, 0) for epoch in itertools.count())
    return list(itertools.islice(itertools.chain.from_iterable(epochs), steps))


def _train(graph, steps):
    """(losses, trained tensors and buffers) after ``steps`` SGD steps at batch 16."""
    trainer = pl.Trainer(graph, _task(), pl.TrainConfig(epochs=1, qat_enabled=True))
    losses = [trainer._step(xb, yb) for xb, yb in _batches(_task(), steps)]
    state = {key: v.value for key, v in trainer.state.vars.items()}
    return losses, {**state, **trainer.state.buffers}


def _retaining(monkeypatch):
    """Run every ``Trainer`` step through ``train_reference`` instead of the library."""
    for owner, name in ((pl, "run_graph"), (ag, "Tape"), (ag, "backward"),
                        (ag, "softmax_cross_entropy")):
        monkeypatch.setattr(owner, name, getattr(train_reference, name))


def _capturing(monkeypatch):
    _retaining(monkeypatch)
    monkeypatch.setattr(train_reference, "SILU", train_reference.silu)
    monkeypatch.setattr(train_reference, "QDQ", train_reference.qdq)


def _assert_same_training(got, want):
    assert got[0] == want[0]  # losses, as floats
    assert got[1].keys() == want[1].keys()
    assert all(got[1][k].tobytes() == want[1][k].tobytes() for k in want[1])


@pytest.mark.parametrize("preset", PRESETS)
def test_qat_steps_match_the_retaining_reference(preset, monkeypatch):
    got = _train(_qat_graph(preset), 6)
    _retaining(monkeypatch)
    _assert_same_training(got, _train(_qat_graph(preset), 6))


@pytest.mark.parametrize("preset", PRESETS)
def test_qat_steps_match_the_capturing_reference(preset, monkeypatch):
    got = _train(_qat_graph(preset), 6)
    _capturing(monkeypatch)
    _assert_same_training(got, _train(_qat_graph(preset), 6))


@pytest.mark.parametrize("preset", PRESETS)
def test_step_peak_is_pinned(preset):
    trainer = pl.Trainer(_qat_graph(preset), _task(), pl.TrainConfig(epochs=1, qat_enabled=True))
    (x0, y0), (x1, y1) = _batches(_task(), 2)
    trainer._step(x0, y0)  # fills the kernels' selection-matrix cache
    tracemalloc.start()
    try:
        trainer._step(x1, y1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < STEP_PEAK_MIB[preset] * 2**20


def _state(graph):
    return RunState({k: ag.Var(a.copy()) for k, a in trainable_items(graph)},
                    {k: a.copy() for k, a in buffer_items(graph)})


def test_taped_forward_frees_conv_and_batchnorm_inputs(monkeypatch):
    g = _qat_graph("y11_mini")
    refs = {"conv": [], "batchnorm": []}
    conv, bn = ops.conv2d_forward, ops.batchnorm_train_forward

    def conv_spy(x, w, *args, **kwargs):
        assert kwargs["need_cols"]  # backward reads the patches
        if w.shape[2:] != (1, 1):  # a 1x1 conv's patch matrix is a view of its input
            refs["conv"].append(weakref.ref(x))
        return conv(x, w, *args, **kwargs)

    def bn_spy(x, *args, **kwargs):
        assert kwargs["need_cache"]  # backward reads xhat
        refs["batchnorm"].append(weakref.ref(x))
        return bn(x, *args, **kwargs)

    monkeypatch.setattr(ops, "conv2d_forward", conv_spy)
    monkeypatch.setattr(ops, "batchnorm_train_forward", bn_spy)
    state, cls, tape = _state(g), g.meta["cls_output"], ag.Tape()
    out = run_graph(g, images((BATCH, 3, 64, 64)), mode="train", tape=tape, state=state,
                    outputs=[cls])
    assert len(refs["conv"]) > 10 and len(refs["batchnorm"]) > 10
    assert [r() for r in refs["conv"] + refs["batchnorm"]] == [None] * sum(map(len, refs.values()))
    # what the tape kept is all that backward reads
    ag.backward(tape, ag.softmax_cross_entropy(tape, out[cls], np.zeros(BATCH, int)))
    assert all(np.isfinite(v.grad).all() for v in state.vars.values() if v.grad is not None)


@pytest.mark.parametrize("preset", PRESETS)
def test_taped_forward_frees_batchnorm_outputs_and_quantizer_inputs(preset, monkeypatch):
    g = _qat_graph(preset)
    refs = {"batchnorm": [], "qdq": [], "multiply": []}
    bn, qdq, mul = ops.batchnorm_train_forward, fakequant.qdq, ops.multiply

    def bn_spy(*args, **kwargs):
        y, cache = bn(*args, **kwargs)
        refs["batchnorm"].append(weakref.ref(y))
        return y, cache

    def qdq_spy(x, scale):
        refs["qdq"].append(weakref.ref(x))
        return qdq(x, scale)

    def mul_spy(a, b):
        refs["multiply"] += [weakref.ref(a), weakref.ref(b)]
        return mul(a, b)

    monkeypatch.setattr(ops, "batchnorm_train_forward", bn_spy)
    monkeypatch.setattr(ops, "qdq", qdq_spy)
    monkeypatch.setattr(ops, "multiply", mul_spy)
    cls, tape = g.meta["cls_output"], ag.Tape()
    run_graph(g, images((BATCH, 3, 64, 64)), mode="train", tape=tape, state=_state(g),
              outputs=[cls])
    assert len(refs["batchnorm"]) > 10 and len(refs["qdq"]) > 10
    assert [r() for r in refs["batchnorm"]] == [None] * len(refs["batchnorm"])
    # a quantizer's input lives on only as an attention multiply's operand, which its
    # gradient reads
    operands = {id(r()) for r in refs["multiply"] if r() is not None}
    assert all(r() is None or id(r()) in operands for r in refs["qdq"])
    # each quantizer record saves its clip mask, one byte per element, and nothing else
    masks = [saved for n, _, _, saved in tape._records if n.kind == "fakequant"]
    assert len(masks) == len(refs["qdq"]) - 1  # the stem's input is data: nothing taped
    assert all(len(m) == 1 and m[0].dtype == np.bool_ and m[0].nbytes == m[0].size
               for m in masks)


def test_untaped_runs_take_no_mask_and_no_derivative(monkeypatch):
    g = _qat_graph("ecoweed_mini")
    x = images((BATCH, 3, 64, 64))
    plain = forward_arrays(g, x)

    def refuse(*args):
        raise AssertionError("an untaped run computed what only backward reads")

    monkeypatch.setattr(ops, "ste_mask", refuse)
    monkeypatch.setattr(ops, "silu_derivative", refuse)
    run_graph(g, x, mode="eval")
    run_graph(g, x, mode="train", state=_state(g))  # batchnorm settling: no tape
    calibrate(g, [x])
    got = forward_arrays(g, x)
    assert all(got[k].tobytes() == plain[k].tobytes() for k in plain)


def _aliasing_graph():
    """Disabled quantizers between a stem and its readers, and before the class output.

    A disabled quantizer and an output pass their input array on to a slot of their own.
    The stem's value is read by the mid quantizer and, after the quantizer's reader has
    run, by the residual add; the mid quantizer's by the mid block and the ``feat``
    output. The linear's value is read by the head quantizer alone, whose value the
    ``cls`` output reads. In backward the residual add hands one gradient array to two
    slots, and the pass-throughs hand theirs on unchanged.
    """
    b = GraphBuilder("alias", (BATCH, 3, 64, 64), meta={"cls_output": "cls"})
    stem = b.conv_block(b.add("input", "image", []), 3, 8, k=3, stride=4, prefix="stem")
    off = {"phase": "disabled", "samples": 0}
    q = b.add("fakequant", "q", [stem], attrs=off, params={"amax": np.zeros(1, np.float32)})
    b.add("output", "feat", [q])
    y = b.add("add", "res", [b.conv_block(q, 8, 8, k=3, prefix="mid"), stem])
    fc = b.add("linear", "fc", [b.add("gap", "pool", [y])],
               params={"weight": b.linear_weight(3, 8), "bias": np.zeros(3, np.float32)})
    qh = b.add("fakequant", "qh", [fc], attrs=off, params={"amax": np.zeros(1, np.float32)})
    b.add("output", "cls", [qh])
    b.graph.validate()
    return b.graph


@pytest.mark.parametrize("which", [f"{p}-disabled" for p in PRESETS] + [
    f"{p}-calibrated" for p in PRESETS] + [f"{m}-{w}" for m, w in FRAGMENTS])
def test_no_kind_returns_an_input_var_in_a_taped_run(which, monkeypatch):
    # a taped run walks plain arrays, as an untaped one does: no rule makes or returns a
    # Var, so none sits on an edge, and only the returned outputs are Vars
    name, variant = which.split("-")
    x = images((4, 3, 64, 64))
    if variant == "disabled":
        g = insert_fakequant(build_mini_net(name, (4, 3, 64, 64), 3, seed=0))
    elif variant == "calibrated":
        g = preset_graph(which)
    else:
        g, x = fragment_graph(name, int(variant)), images((2, int(variant), 16, 16))
    seen, made, state = set(), [], _state(g)
    init = ag.Var.__init__

    def checked(rule):
        def run_rule(run, n, ins):
            out = rule(run, n, ins)
            assert all(isinstance(o, np.ndarray) for o in (out if isinstance(out, list) else [out]))
            seen.add(n.kind)
            return out
        return run_rule

    for kind, rule in list(executor._RULES.items()):
        monkeypatch.setitem(executor._RULES, kind, checked(rule))
    monkeypatch.setattr(ag.Var, "__init__", lambda v, *a: made.append(v) or init(v, *a))
    out = run_graph(g, x, mode="train", tape=ag.Tape(), state=state)
    assert made == list(out.values())
    assert "output" in seen and ("fakequant" in seen) == (name in PRESETS)


def test_no_backward_rule_writes_into_its_upstream_gradient(monkeypatch):
    # the add hands one gradient to two slots and a pass-through hands its own on: a rule
    # writing into its upstream gradient would change another slot's
    g, ran = _aliasing_graph(), set()

    def checked(kind, rule):
        def backward(n, saved, grads):
            before = [None if gp is None else gp.copy() for gp in grads]
            out = rule(n, saved, grads)
            assert all(b is None or gp.tobytes() == b.tobytes() for gp, b in zip(grads, before))
            ran.add(kind)
            return out
        return backward

    for kind, spec in list(SPECS.items()):
        if spec.backward is not None:
            monkeypatch.setitem(SPECS, kind, dataclasses.replace(
                spec, backward=checked(kind, spec.backward)))
    assert all(np.isfinite(_train(g, 2)[0]))
    assert {"add", "output", "fakequant", "activation", "batchnorm", "conv"} <= ran


def _fragment_steps(graph, x, weights, run_graph, tape_cls, backward, steps=6):
    """Gradients, then trained tensors and buffers, over ``steps`` SGD steps on the loss
    sum_k(out_k * weights_k) over the graph's outputs."""
    state = _state(graph)
    grads = []
    for _ in range(steps):
        for v in state.vars.values():
            v.grad = None
        tape = tape_cls()
        outs = list(run_graph(graph, x, mode="train", tape=tape, state=state).values())
        loss = type(outs[0])(np.asarray(sum(float((o.value * w).sum())
                                            for o, w in zip(outs, weights)), np.float32))

        def grad(g, outs=outs):
            for o, w in zip(outs, weights):
                o.grad = w * g if o.grad is None else o.grad + w * g
        tape.record(loss, grad)
        backward(tape, loss)
        grads.append({k: v.grad for k, v in state.vars.items()})
        for v in state.vars.values():
            v.value = (v.value - 0.01 * v.grad).astype(np.float32)
    return grads, {**{k: v.value for k, v in state.vars.items()}, **state.buffers}


@pytest.mark.parametrize("module, width", FRAGMENTS)
def test_fragment_steps_match_the_reference(module, width):
    x = images((2, width, 16, 16), 3)
    g = calibrate(insert_fakequant(fragment_graph(module, width)), [x])
    r = np.random.default_rng(width)
    weights = [r.normal(size=o.value.shape).astype(np.float32)
               for o in run_graph(g, x, mode="eval").values()]
    got = _fragment_steps(g, x, weights, run_graph, ag.Tape, ag.backward)
    want = _fragment_steps(g, x, weights, train_reference.run_graph, train_reference.Tape,
                           train_reference.backward)
    for got_step, want_step in zip(got[0], want[0], strict=True):
        assert got_step.keys() == want_step.keys()
        assert all(got_step[k].tobytes() == want_step[k].tobytes() for k in want_step)
    # gradients that read exactly 0 at every step would show nothing (a2c2f's layer scale
    # starts at 0, which stops every gradient below it at the first step)
    assert all(any(step[k].any() for step in want[0]) for k in want[0][0])
    assert got[1].keys() == want[1].keys()
    assert all(got[1][k].tobytes() == want[1][k].tobytes() for k in want[1])


@pytest.mark.parametrize("preset", PRESETS)
def test_qat_steps_with_disabled_quantizers_match_the_reference(preset, monkeypatch):
    g = insert_fakequant(build_mini_net(preset, (BATCH, 3, 64, 64), 3, seed=0))
    got = _train(g, 6)
    _retaining(monkeypatch)
    _assert_same_training(got, _train(g, 6))


def test_output_and_disabled_quantizer_aliasing_one_var_still_trains(monkeypatch):
    g = _aliasing_graph()
    got = _train(g, 6)
    assert all(np.isfinite(got[0]))
    x = images((BATCH, 3, 64, 64))
    taped = run_graph(g, x, mode="train", tape=ag.Tape(), state=_state(g), outputs=["feat", "cls"])
    plain = run_graph(g, x, mode="train", state=_state(g), outputs=["feat", "cls"])
    assert all(taped[k].value.tobytes() == plain[k].value.tobytes() for k in ("feat", "cls"))
    _retaining(monkeypatch)
    _assert_same_training(got, _train(g, 6))
