"""Container format: round-trips, determinism, corruption rejection."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import container, split_container
from slimgraph import build_mini_net, forward_arrays
from slimgraph.builders import build_fragment
from slimgraph.errors import ModelFormatError
from slimgraph.modelio import MAGIC, from_bytes, load, save, to_bytes
from slimgraph.pipeline import ToyTask, TrainConfig, train


def build(seed=0, preset="y11_mini"):
    return build_mini_net(preset, (1, 3, 64, 64), 3, seed=seed)


class TestRoundTrip:
    def test_fp32_bit_identical_topology_and_weights(self, tmp_path):
        g = build()
        path = tmp_path / "m.twnm"
        written = save(g, 32, path)
        assert written == path.stat().st_size
        back, bits = load(path)
        assert bits == 32
        assert list(back.nodes) == list(g.nodes)
        for nid, n in g.nodes.items():
            bn = back.node(nid)
            assert bn.kind == n.kind and bn.attrs == n.attrs and bn.protected == n.protected
            for pname, arr in n.params.items():
                assert arr.tobytes() == bn.params[pname].tobytes()

    def test_fp32_forward_bit_identical(self, tmp_path, rng):
        g = build(seed=4)
        path = tmp_path / "m.twnm"
        save(g, 32, path)
        back, _ = load(path)
        x = rng.normal(0.4, 0.2, (1, 3, 64, 64)).astype(np.float32)
        ya, yb = forward_arrays(g, x), forward_arrays(back, x)
        for k in ya:
            assert ya[k].tobytes() == yb[k].tobytes()

    def test_fp16_blob_exactly_half(self):
        g = build()
        def blob_len(data):
            (topo_len,) = struct.unpack_from("<Q", data, 8)
            return len(data) - 16 - topo_len - 4
        b32, b16 = to_bytes(g, 32), to_bytes(g, 16)
        nelems = sum(a.size for n in g.nodes.values() for a in n.params.values())
        assert blob_len(b32) == nelems * 4
        assert blob_len(b16) == nelems * 2

    def test_fp16_reload_error_small_on_presets(self, rng):
        for preset in ("y11_mini", "ecoweed_mini"):
            g = build(seed=1, preset=preset)
            back, bits = from_bytes(to_bytes(g, 16))
            assert bits == 16
            x = rng.normal(0.4, 0.2, (1, 3, 64, 64)).astype(np.float32)
            ya, yb = forward_arrays(g, x), forward_arrays(back, x)
            for k in ya:
                denom = max(float(np.abs(ya[k]).max()), 1e-9)
                assert float(np.abs(ya[k] - yb[k]).max()) / denom <= 1e-2

    def test_trained_graph_roundtrip(self, tmp_path):
        task = ToyTask(seed=0, n_train=16, n_val=8)
        g, _ = train(build(), task, TrainConfig(epochs=2, seed=0))
        path = tmp_path / "t.twnm"
        save(g, 32, path)
        back, _ = load(path)
        for nid, n in g.nodes.items():
            for pname, arr in n.params.items():
                assert arr.tobytes() == back.node(nid).params[pname].tobytes()


class TestCanonical:
    def test_serialization_deterministic(self):
        a = to_bytes(build(seed=7), 32)
        b = to_bytes(build(seed=7), 32)
        assert a == b

    def test_reload_and_resave_identical(self, tmp_path):
        g = build(seed=2)
        data = to_bytes(g, 32)
        back, _ = from_bytes(data)
        assert to_bytes(back, 32) == data


class TestCorruption:
    def test_blob_corruption_fails_checksum(self, tmp_path):
        g = build()
        data = bytearray(to_bytes(g, 32))
        (topo_len,) = struct.unpack_from("<Q", data, 8)
        data[16 + topo_len + 100] ^= 0xFF  # one blob byte
        with pytest.raises(ModelFormatError, match="checksum"):
            from_bytes(bytes(data))

    def test_truncation_rejected_without_partial_graph(self):
        data = to_bytes(build(), 32)
        with pytest.raises(ModelFormatError, match="truncated"):
            from_bytes(data[:40])
        with pytest.raises(ModelFormatError, match="truncated"):
            from_bytes(data[:8])

    def test_bad_magic(self):
        data = bytearray(to_bytes(build(), 32))
        data[:4] = b"NOPE"
        with pytest.raises(ModelFormatError, match="magic"):
            from_bytes(bytes(data))

    def test_version_gate_names_both_versions(self):
        data = bytearray(to_bytes(build(), 32))
        struct.pack_into("<I", data, 4, 2)
        with pytest.raises(ModelFormatError, match="version 2.*handles 1"):
            from_bytes(bytes(data))

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(ModelFormatError, match="cannot read"):
            load(tmp_path / "missing.twnm")


SMALL = to_bytes(build_fragment("sppf", (1, 4, 8, 8), cout=4, pool_k=3), 32)


class TestMalformedTopology:
    def test_helpers_rebuild_a_valid_container(self):
        assert from_bytes(container(*split_container(SMALL)))[1] == 32

    def test_missing_precision(self):
        doc, blob = split_container(SMALL)
        del doc["precision"]
        with pytest.raises(ModelFormatError, match="precision"):
            from_bytes(container(doc, blob))

    @pytest.mark.parametrize("nelems", [-3, 0, 1])
    def test_nelems_not_matching_shape(self, nelems):
        doc, blob = split_container(SMALL)
        doc["nodes"][1]["tensors"][0][4] = nelems
        with pytest.raises(ModelFormatError):
            from_bytes(container(doc, blob))

    def test_unknown_kind(self):
        doc, blob = split_container(SMALL)
        doc["nodes"][1]["kind"] = "deconv"
        with pytest.raises(ModelFormatError, match="unknown node kind 'deconv'"):
            from_bytes(container(doc, blob))

    def test_duplicate_node_id(self):
        doc, blob = split_container(SMALL)
        doc["nodes"][2]["id"] = doc["nodes"][1]["id"]
        with pytest.raises(ModelFormatError, match="duplicate node id"):
            from_bytes(container(doc, blob))

    def test_deeply_nested_document(self):
        topo = b"[" * 100_000
        data = MAGIC + struct.pack("<IQ", 1, len(topo)) + topo + struct.pack("<I", 0)
        with pytest.raises(ModelFormatError, match="unparseable"):
            from_bytes(data)

    def test_inconsistent_graph_is_a_format_error(self):
        doc, blob = split_container(SMALL)
        doc["input_shape"][1] = 5  # no longer matches the first conv's Cin
        with pytest.raises(ModelFormatError, match="input channels"):
            from_bytes(container(doc, blob))


def _json_values():
    return st.recursive(
        st.none() | st.booleans() | st.integers(-3, 9) | st.floats(allow_nan=False)
        | st.text(max_size=4) | st.sampled_from(["conv", "split", "f32", "f16", "image"]),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                     max_size=3),
        max_leaves=8)


def _mutate(doc, path_choices, value, delete):
    """Replace (or delete) the value at a path chosen by path_choices."""
    node = doc
    for k in path_choices:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            break
        key = keys[k % len(keys)]
        child = node[key]
        if not isinstance(child, (dict, list)) or not child or k % 3 == 0:
            if delete and isinstance(node, dict):
                del node[key]
            else:
                node[key] = value
            return
        node = child


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=6), _json_values(), st.booleans())
def test_fuzzed_topology_raises_only_format_errors(path_choices, value, delete):
    doc, blob = split_container(SMALL)
    _mutate(doc, path_choices, value, delete)
    try:
        g, bits = from_bytes(container(doc, blob))
    except ModelFormatError:
        return
    assert bits in (16, 32) and g.nodes


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(SMALL) - 1), st.integers(0, 255)),
                min_size=1, max_size=4),
       st.integers(0, len(SMALL)))
def test_fuzzed_container_bytes_raise_only_format_errors(edits, cut):
    data = bytearray(SMALL)
    for pos, byte in edits:
        data[pos] = byte
    try:
        from_bytes(bytes(data[:cut]))
    except ModelFormatError:
        pass
