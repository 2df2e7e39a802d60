"""What a training step holds in memory, and that releasing it changes no result.

A taped ``run_graph`` releases each activation once its last reader has run, and
``backward`` consumes its tape. SiLU keeps only its derivative and a quantizer
only its clip mask. ``train_reference`` keeps the retaining and capturing
versions, under which every trained parameter must come out bit for bit the same.
"""

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
    monkeypatch.setattr(pl, "run_graph", train_reference.run_graph)
    monkeypatch.setattr(ag, "backward", train_reference.backward)


def _capturing(monkeypatch):
    monkeypatch.setattr(ag, "silu", train_reference.silu)
    monkeypatch.setattr(ag, "qdq", train_reference.qdq)


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

    def conv_spy(x, w, *args):
        if w.shape[2:] != (1, 1):  # a 1x1 conv's patch matrix is a view of its input
            refs["conv"].append(weakref.ref(x))
        return conv(x, w, *args)

    def bn_spy(x, *args):
        refs["batchnorm"].append(weakref.ref(x))
        return bn(x, *args)

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

    def bn_spy(*args):
        y, cache = bn(*args)
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
    # each quantizer closure holds its clip mask, one byte per element, and nothing else
    masks = [[c.cell_contents for c in fn.__closure__ if isinstance(c.cell_contents, np.ndarray)]
             for _, fn in tape._records if fn.__qualname__.startswith("qdq.")]
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
    monkeypatch.setattr(ag, "silu_derivative", refuse)
    run_graph(g, x, mode="eval")
    run_graph(g, x, mode="train", state=_state(g))  # batchnorm settling: no tape
    calibrate(g, [x])
    got = forward_arrays(g, x)
    assert all(got[k].tobytes() == plain[k].tobytes() for k in plain)


def _aliasing_graph():
    """Disabled quantizers between a stem and its readers, and before the class output.

    A disabled quantizer and an output pass their input on as an ``autograd.identity``
    record, a Var of their own, so each Var sits on one edge. The stem's edge is read by
    the mid quantizer and, after the quantizer's reader has run, by the residual add; the
    mid quantizer's by the mid block and the ``feat`` output. The linear's edge is read by
    the head quantizer alone, whose edge the ``cls`` output reads.
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
    # a Var on two edges would be released when its first edge is dropped
    name, variant = which.split("-")
    x = images((4, 3, 64, 64))
    if variant == "disabled":
        g = insert_fakequant(build_mini_net(name, (4, 3, 64, 64), 3, seed=0))
    elif variant == "calibrated":
        g = preset_graph(which)
    else:
        g, x = fragment_graph(name, int(variant)), images((2, int(variant), 16, 16))
    seen = set()

    def checked(rule):
        def run_rule(run, n, ins):
            out = rule(run, n, ins)
            outs = out if isinstance(out, list) else [out]
            assert not any(o is i for o in outs for i in ins), n.id
            seen.add(n.kind)
            return out
        return run_rule

    for kind, rule in list(executor._VAR_RULES.items()):
        monkeypatch.setitem(executor._VAR_RULES, kind, checked(rule))
    run_graph(g, x, mode="train", tape=ag.Tape(), state=_state(g))
    assert "output" in seen and ("fakequant" in seen) == (name in PRESETS)


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
