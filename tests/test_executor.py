"""What ``run_graph`` documents of a run: its modes, where it reads a tensor and which
``Var``s it makes."""

import numpy as np
import pytest

from conftest import assert_same_bits, chain_graph, images, settled_graph
from slimgraph import autograd as ag
from slimgraph import ops
from slimgraph.errors import GraphError
from slimgraph.executor import BN_MOMENTUM, RunState, _Run, run_graph
from slimgraph.graph import trainable_items
from slimgraph.kinds import _BN, _BN_EPS

STATS = _BN[2:]


class TestModes:
    def test_an_unknown_mode_and_training_without_state_are_refused(self):
        g, x = chain_graph(), images((2, 3, 8, 8))
        with pytest.raises(GraphError, match="^unknown execution mode 'infer'$"):
            run_graph(g, x, mode="infer")
        with pytest.raises(GraphError, match="^training mode requires a RunState$"):
            run_graph(g, x, mode="train")

    def test_the_statistics_each_mode_normalizes_by_and_moves(self):
        """train and calibrate normalize by the batch's statistics, eval by the stored ones;
        only train moves the running buffers, one momentum step toward the batch's."""
        g, x = chain_graph(), images((4, 3, 8, 8))
        bn = g.node("blk.bn")
        bn.params.update(running_mean=np.full(8, 0.5, np.float32),
                         running_var=np.full(8, 2.0, np.float32))
        conv = run_graph(g, x, outputs=["blk.conv"])["blk.conv"].value
        eps = bn.attrs.get("eps", _BN_EPS)
        stored = ops.batchnorm_infer(conv, *(bn.params[k] for k in _BN), eps)
        batch, (_, _, *stats) = ops.batchnorm_train_forward(conv, bn.params["gamma"],
                                                            bn.params["beta"], eps)
        for mode, want in (("train", batch), ("calibrate", batch), ("eval", stored)):
            state = RunState({}, {("blk.bn", k): bn.params[k].copy() for k in STATS})
            got = run_graph(g, x, mode=mode, state=state, outputs=["blk.bn"])["blk.bn"].value
            assert_same_bits(got, want, mode)
            for k, stat in zip(STATS, stats):
                old = bn.params[k]
                moved = ((1 - BN_MOMENTUM) * old + BN_MOMENTUM * stat).astype(np.float32)
                assert_same_bits(state.buffers[("blk.bn", k)], moved if mode == "train" else old,
                                 (mode, k))


def test_a_tensor_is_read_from_a_var_then_a_buffer_then_the_node():
    n = chain_graph().node("blk.bn")
    own, key = n.params["gamma"], ("blk.bn", "gamma")
    var, buffer = ag.Var(own + 1), own + 2
    assert _Run(None, "eval", None, RunState({key: var}, {key: buffer})).array(n, "gamma") is var.value
    assert _Run(None, "eval", None, RunState({}, {key: buffer})).array(n, "gamma") is buffer
    assert _Run(None, "eval", None, None).array(n, "gamma") is own
    assert _Run(None, "eval", None, None).array(n, "bias") is None


def test_a_taped_run_makes_no_var_but_its_outputs(monkeypatch):
    g, x = settled_graph("y11_mini-calibrated"), images((2, 3, 64, 64))
    state = RunState({k: ag.Var(a.copy()) for k, a in trainable_items(g)}, {})
    made, init = [], ag.Var.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ag.Var, "__init__", counting)
    out = run_graph(g, x, mode="train", tape=ag.Tape(), state=state)
    assert made == list(out.values()) and len(out) == len(g.output_ids)
