"""Untaped runs walk plain arrays: each kind's array rule against a ``Var`` walk.

``eval``, ``calibrate`` and ``train`` without a tape run every node's ``array`` rule,
which makes no ``Var`` and no closure. ``untaped_reference`` walks ``Var``s through its
own rules instead, as these runs did before; outputs and running buffers must match bit
for bit, on the settled QAT presets and the compress benchmark's fragments.
"""

import numpy as np
import pytest

import untaped_reference as reference
from conftest import FRAGMENTS, assert_same_bits, fragment_graph, images, settled_graph
from slimgraph import autograd as ag
from slimgraph import forward_arrays
from slimgraph.builders import PRESETS
from slimgraph.executor import RunState, run_graph
from slimgraph.fakequant import quantizer_ids
from slimgraph.graph import buffer_items, trainable_items
from slimgraph.kinds import SPECS

GRAPHS = [pytest.param(("preset", p), id=p) for p in PRESETS] + [
    pytest.param(("fragment", m, w), id=f"{m}-{w}") for m, w in FRAGMENTS]


def _graph_and_batch(which):
    if which[0] == "preset":
        return settled_graph(f"{which[1]}-calibrated"), images((4, 3, 64, 64), 5)
    _, module, width = which
    return fragment_graph(module, width), images((2, width, 16, 16), 5)


def _state(g):
    return RunState({k: ag.Var(a.copy()) for k, a in trainable_items(g)},
                    {k: a.copy() for k, a in buffer_items(g)})


def test_every_kind_has_an_array_rule():
    # the one forward rule of each kind, which every run walks
    for kind, spec in SPECS.items():
        assert callable(spec.array) and not hasattr(spec, "forward"), kind


@pytest.mark.parametrize("mode", ["eval", "calibrate", "train"])
@pytest.mark.parametrize("which", GRAPHS)
def test_array_walk_equals_the_var_walk(which, mode):
    g, x = _graph_and_batch(which)
    outputs = g.output_ids + quantizer_ids(g)
    state, ref_state = (_state(g), _state(g)) if mode == "train" else (None, None)
    got = run_graph(g, x, mode=mode, state=state, outputs=outputs)
    want = reference.run_graph(g, x, mode=mode, state=ref_state, outputs=outputs)
    assert list(got) == list(want)
    for nid in want:
        assert_same_bits(got[nid].value, want[nid], nid)
    if mode == "train":  # batch statistics folded into the running buffers
        assert list(state.buffers) == list(ref_state.buffers) and state.buffers
        for key, want_buffer in ref_state.buffers.items():
            assert_same_bits(state.buffers[key], want_buffer, key)


def test_array_walk_reads_the_values_of_state_vars():
    # Trainer.evaluate passes its trained vars: the walk must read those, not the node's
    g, x = _graph_and_batch(("preset", "y11_mini"))
    state = _state(g)
    for v in state.vars.values():
        v.value = v.value * np.float32(0.5)
    cls = g.meta["cls_output"]
    got = run_graph(g, x, mode="eval", state=state, outputs=[cls])[cls].value
    assert_same_bits(got, reference.run_graph(g, x, state=state, outputs=[cls])[cls])
    assert got.tobytes() != run_graph(g, x, mode="eval", outputs=[cls])[cls].value.tobytes()


@pytest.mark.parametrize("preset", PRESETS)
def test_an_untaped_run_makes_no_var_but_its_outputs(preset, monkeypatch):
    g, x = _graph_and_batch(("preset", preset))
    trained, outputs = _state(g), g.output_ids + quantizer_ids(g)
    made = []
    init = ag.Var.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ag.Var, "__init__", counting)
    for mode, state in (("eval", None), ("eval", trained), ("calibrate", None),
                        ("train", trained)):
        made.clear()
        out = run_graph(g, x, mode=mode, state=state, outputs=outputs)
        assert made == list(out.values()), mode
    made.clear()
    forward_arrays(g, x)
    assert len(made) == len(g.output_ids)
