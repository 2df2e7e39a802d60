"""Container format: round-trips, determinism, corruption rejection; the one file writer."""

import os
import stat
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import (FRAGMENTS, chain_graph, container, fragment_graph, preset_graph,
                      split_container)
from container_reference import reference_to_bytes
from slimgraph import build_mini_net, count_flops, forward_arrays, pruner, resolve_groups
from slimgraph.builders import PRESETS, build_fragment
from slimgraph.errors import ExportError, ModelFormatError, SlimgraphError
from slimgraph.fakequant import calibrate, export_fp16, insert_fakequant, write_calibration
from slimgraph.graph import Graph
from slimgraph.modelio import MAGIC, from_bytes, load, save, save_bytes, to_bytes
from slimgraph.pipeline import ToyTask, TrainConfig, train, write_metric_log
from slimgraph.pruner import PrunePlan, write_plan


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


class TestHalfRange:
    @pytest.mark.parametrize("value, match", [(1e6, "overflows half"), (np.inf, "non-finite"),
                                              (np.nan, "non-finite")])
    def test_fp16_write_rejects_weight_binary16_cannot_hold(self, tmp_path, value, match):
        g = build()
        g.node("s0.conv").params["weight"][0, 0, 0, 0] = value
        with pytest.raises(ExportError, match=match):
            save(g, 16, tmp_path / "m.twnm")
        assert list(tmp_path.iterdir()) == []
        back, _ = from_bytes(to_bytes(g, 32))  # 32-bit writes keep the value
        assert np.array_equal(back.node("s0.conv").params["weight"][0, 0, 0, 0], value,
                              equal_nan=True)


def serialized(serialize, g, bits):
    """("bytes", the container) or ("error", the ``ExportError`` message)."""
    try:
        return "bytes", serialize(g, bits)
    except ExportError as e:
        return "error", str(e)


class TestHalfRangeEdges:
    """The 16-bit range check against the reference serializer, value by value.

    Keys are positions in blob order (``blk.conv.bias``, then ``blk.conv.weight``);
    a list fills the tensor's first entries, ``None`` empties the tensor."""

    @pytest.mark.parametrize("case, verdict", [
        ({1: np.nan}, "blk.conv.weight contains non-finite"),
        ({1: np.inf}, "blk.conv.weight contains non-finite"),
        ({1: -np.inf}, "blk.conv.weight contains non-finite"),
        ({1: 65504.0}, None),
        ({1: [65504.0, -65504.0]}, None),
        # the cast rounds these to 65504, so the verdict must come from the values
        ({1: 65505.0}, "blk.conv.weight magnitude 6.55e+04 overflows"),
        ({1: 65519.0}, "blk.conv.weight magnitude 6.552e+04 overflows"),
        ({1: -70000.0}, "blk.conv.weight magnitude 7e+04 overflows"),
        ({0: 70000.0, 1: np.nan}, "blk.conv.bias magnitude 7e+04 overflows"),
        ({0: np.nan, 1: 70000.0}, "blk.conv.bias contains non-finite"),
        ({1: [70000.0, np.nan]}, "blk.conv.weight contains non-finite"),
        ({0: None}, None),
        ({0: None, 1: np.inf}, "blk.conv.weight contains non-finite"),
    ])
    def test_verdict_and_bytes_equal_the_reference(self, case, verdict):
        g = chain_graph()
        n = g.node("blk.conv")
        for pos, value in case.items():
            name = sorted(n.params)[pos]
            shape, flat = n.params[name].shape, n.params[name].flatten()
            if value is not None:
                flat[:np.size(value)] = value
            n.params[name] = flat[:0] if value is None else flat.reshape(shape)
        got = serialized(to_bytes, g, 16)
        assert got == serialized(reference_to_bytes, g, 16)
        if verdict is None:
            assert got[0] == "bytes" and export_fp16(g)[0] == got[1]
        else:
            assert got[0] == "error" and got[1].startswith(f"tensor {verdict}")
            with pytest.raises(ExportError) as e:
                export_fp16(g)
            assert str(e.value) == got[1]


class TestCanonical:
    @pytest.mark.parametrize("bits", [16, 32])
    @pytest.mark.parametrize("name", [f"{p}-{v}" for p in PRESETS for v in ("plain", "calibrated")]
                             + [f"{m}@{w}" for m, w in FRAGMENTS])
    def test_bytes_equal_the_reference_serializer(self, name, bits):
        module, _, width = name.partition("@")
        g = fragment_graph(module, int(width)) if width else preset_graph(name)
        assert to_bytes(g, bits) == reference_to_bytes(g, bits)

    def test_reference_serializer_agrees_on_export_errors(self):
        g = build()
        g.node("s0.conv").params["weight"][0, 0, 0, 0] = np.inf
        for serialize in (to_bytes, reference_to_bytes):
            with pytest.raises(ExportError, match="s0.conv.weight contains non-finite"):
                serialize(g, 16)
        assert to_bytes(g, 32) == reference_to_bytes(g, 32)

    def test_serialization_deterministic(self):
        a = to_bytes(build(seed=7), 32)
        b = to_bytes(build(seed=7), 32)
        assert a == b

    def test_reload_and_resave_identical(self, tmp_path):
        g = build(seed=2)
        data = to_bytes(g, 32)
        back, _ = from_bytes(data)
        assert to_bytes(back, 32) == data

    @pytest.mark.parametrize("bits", [32, 16])
    def test_reading_copies_the_blob_only_into_the_tensors(self, bits):
        """The weight blob is read through a view: beyond the float32 tensors it builds,
        a read holds less than half the container more (a blob copy would be nearly all)."""
        g = pruner.apply_prune(fragment_graph("spab", 256),
                               pruner.build_plan(fragment_graph("spab", 256), 0.5))
        data = to_bytes(g, bits)
        tensors = 4 * sum(a.size for n in g.nodes.values() for a in n.params.values())
        from_bytes(data)  # warms what a first read caches
        tracemalloc.start()
        try:
            back, _ = from_bytes(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert to_bytes(back, bits) == data
        assert peak < tensors + len(data) // 2, (peak, tensors, len(data))
        if bits == 32:
            assert peak < 1.5 * len(data)


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


def _mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


class TestSaveBytes:
    """``save_bytes`` writes every file the package writes: through links, with the umask,
    atomically for paths, in place for FIFOs and devices."""

    @pytest.fixture(params=[0o022, 0o077], ids=["umask-022", "umask-077"])
    def umask(self, request):
        old = os.umask(request.param)
        yield request.param
        os.umask(old)

    def test_new_file_takes_the_mode_open_gives(self, tmp_path, umask):
        save_bytes(b"x", tmp_path / "a")
        (tmp_path / "b").write_bytes(b"x")
        assert _mode(tmp_path / "a") == _mode(tmp_path / "b") == 0o666 & ~umask

    def test_a_rewrite_replaces_the_file(self, tmp_path, umask):
        # a hard link keeps the old bytes and the new file takes the umask's mode
        path, old = tmp_path / "m.twnm", tmp_path / "old.twnm"
        path.write_bytes(b"old")
        path.chmod(0o600)
        os.link(path, old)
        save_bytes(b"new", path)
        assert path.read_bytes() == b"new" and old.read_bytes() == b"old"
        assert _mode(path) == 0o666 & ~umask and _mode(old) == 0o600

    def test_a_symlinked_path_keeps_its_link_and_rewrites_its_target(self, tmp_path):
        target = tmp_path / "real" / "m.twnm"
        target.parent.mkdir()
        target.write_bytes(b"old")
        link = tmp_path / "link.twnm"
        link.symlink_to(target)
        assert save_bytes(b"new", link) == 3
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == b"new"
        assert sorted(os.listdir(tmp_path)) == ["link.twnm", "real"]
        assert os.listdir(target.parent) == ["m.twnm"]

    def test_a_dangling_link_gets_its_target_made(self, tmp_path):
        link = tmp_path / "link.twnm"
        link.symlink_to(tmp_path / "m.twnm")
        save_bytes(b"new", link)
        assert link.is_symlink() and (tmp_path / "m.twnm").read_bytes() == b"new"

    def test_a_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        data = bytes(range(256)) * 1024  # more than a pipe buffer holds
        assert save_bytes(data, fifo) == len(data)
        reader.join(timeout=30)
        assert not reader.is_alive() and got == [data]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode) and os.listdir(tmp_path) == ["pipe"]

    @pytest.mark.parametrize("form", ["/dev/fd/{fd}", "/proc/self/fd/{fd}", "link"])
    def test_a_path_to_an_open_descriptor_writes_through_it(self, tmp_path, form):
        # at its offset, keeping the file it is open on: no rename over the file
        path = tmp_path / "out.txt"
        with open(path, "wb") as f:
            f.write(b"before,")
            f.flush()
            target = form.format(fd=f.fileno())
            if form == "link":
                target = tmp_path / "link"
                target.symlink_to(f"/dev/fd/{f.fileno()}")
            inode = os.stat(path).st_ino
            assert save_bytes(b"data,", target) == 5
            f.write(b"after")
        assert path.read_bytes() == b"before,data,after" and os.stat(path).st_ino == inode

    def test_a_failed_write_leaves_the_old_file_and_no_temp_file(self, tmp_path, monkeypatch):
        path = tmp_path / "m.twnm"
        path.write_bytes(b"old")

        def fail(*args):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename refused"):
            save_bytes(b"new", path)
        assert os.listdir(tmp_path) == ["m.twnm"] and path.read_bytes() == b"old"

    def test_text_writers_write_the_bytes_they_always_wrote(self, tmp_path):
        g = insert_fakequant(chain_graph())
        for i, q in enumerate(n for n in g.nodes.values() if n.kind == "fakequant"):
            q.params["amax"] = np.array([0.75 + i], np.float32)
            q.attrs.update(phase="active", samples=96)
        write_calibration(g, tmp_path / "c.txt")
        write_plan(PrunePlan({"g2": (1, 3), "g0": (0,)}, 0.5, 3), tmp_path / "p.txt")
        write_metric_log([(0, 1.23456789, 0.5, "dense"), (1, 0.5, 2 / 3, "pruned")],
                         tmp_path / "m.csv")
        assert (tmp_path / "c.txt").read_bytes() == (
            b"# slimgraph calibration v1\n"
            b"blk.conv__q amax 0.75 scale 0.005905511811023622 samples 96\n"
            b"head__q amax 1.75 scale 0.013779527559055118 samples 96\n")
        assert (tmp_path / "p.txt").read_bytes() == (
            b"# slimgraph prune plan v1\nfraction 0.5\nepoch 3\n"
            b"group g0 remove 0\ngroup g2 remove 1,3\n")
        assert (tmp_path / "m.csv").read_bytes() == (
            b"epoch,train_loss,val_acc,phase\n0,1.234568,0.5000,dense\n1,0.500000,0.6667,pruned\n")


SMALL = to_bytes(build_fragment("sppf", (1, 4, 8, 8), cout=4, pool_k=3), 32)


def edited_container(kind, edit):
    """An instrumented ecoweed_mini container whose first node of a kind went through edit."""
    doc, blob = split_container(to_bytes(insert_fakequant(build(preset="ecoweed_mini")), 32))
    edit(next(nd for nd in doc["nodes"] if nd["kind"] == kind))
    return container(doc, blob)


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

    @pytest.mark.parametrize("kind, edit, match", [
        ("activation", lambda nd: nd["attrs"].update(fn="relu"), "attr 'fn' = 'relu'"),
        ("addconst", lambda nd: nd["attrs"].pop("c"), "lacks the attr 'c'"),
        ("batchnorm", lambda nd: nd["attrs"].update(eps="x"), "attr 'eps' = 'x'"),
        ("split", lambda nd: nd["attrs"]["sizes"].__setitem__(0, 8.0), r"attr 'sizes' = \[8.0, 8\]"),
        ("fakequant", lambda nd: nd["attrs"].update(phase="calibrating"), "attr 'phase'"),
        ("fakequant", lambda nd: nd["attrs"].update(phase="observe"), "attr 'phase' = 'observe'"),
        ("conv", lambda nd: nd["attrs"].update(dilation=2), "has no attr 'dilation'"),
        ("batchnorm", lambda nd: nd["tensors"][3].__setitem__(0, "junk"),
         "lacks the tensor 'running_var'"),
    ], ids=["relu-activation", "addconst-without-c", "eps-not-a-number", "float-split-size",
            "unknown-phase", "removed-observe-phase", "unknown-attr", "renamed-tensor"])
    def test_attrs_and_tensors_checked_against_the_kind(self, kind, edit, match):
        with pytest.raises(ModelFormatError, match=match):
            from_bytes(edited_container(kind, edit))

    def test_pool_padding_beyond_half_the_window_is_a_format_error(self):
        doc, blob = split_container(SMALL)  # pool_k = 3 allows padding 1
        next(nd for nd in doc["nodes"] if nd["kind"] == "maxpool")["attrs"]["padding"] = 2
        with pytest.raises(ModelFormatError, match=r"padding 2 exceeds k // 2 = 1"):
            from_bytes(container(doc, blob))

    @pytest.mark.parametrize("field, value", [
        (0, 5), (1, None), (2, [True, 4, 1, 1]), (2, [0, 4, 1, 1]), (2, [4.0, 4, 1, 1]),
        (2, "4,4,1,1"), (3, -1), (3, 0.0), (4, False),
    ])
    def test_tensor_entry_of_the_wrong_form(self, field, value):
        doc, blob = split_container(SMALL)
        doc["nodes"][1]["tensors"][0][field] = value
        with pytest.raises(ModelFormatError, match=r"is not \[name, tag, shape, offset, nelems\]"):
            from_bytes(container(doc, blob))

    @pytest.mark.parametrize("shape", [[1, 4, 8, True], [1, 0, 8, 8], [1, 4.0, 8, 8], [1, "4"]])
    def test_input_shape_of_the_wrong_form(self, shape):
        doc, blob = split_container(SMALL)
        doc["input_shape"] = shape
        with pytest.raises(ModelFormatError, match="is not a list of positive ints"):
            from_bytes(container(doc, blob))

    def test_a_cycle_is_a_format_error(self):
        doc, blob = split_container(SMALL)
        doc["nodes"][1]["inputs"] = [[doc["nodes"][-1]["id"], 0]]
        with pytest.raises(ModelFormatError, match="inconsistent topology: graph contains a cycle"):
            from_bytes(container(doc, blob))

    def test_reading_sorts_the_graph_once(self, monkeypatch):
        # validate returns the order, and shape inference takes it
        calls = []
        topo_order = Graph.topo_order
        monkeypatch.setattr(Graph, "topo_order", lambda g: calls.append(g) or topo_order(g))
        g, _ = from_bytes(SMALL)
        assert calls == [g]

    def test_tensor_named_twice_in_one_node(self):
        doc, blob = split_container(to_bytes(build(), 32))
        tensors = next(nd for nd in doc["nodes"] if nd["id"] == "s0.conv")["tensors"]
        bias = next(t for t in tensors if t[0] == "bias")
        tensors.append(["bias", "f32", bias[2], len(blob), bias[4]])  # fresh, non-overlapping
        blob += np.full(bias[4], 7.0, "<f4").tobytes()
        with pytest.raises(ModelFormatError, match=r"tensor s0\.conv\.bias is listed twice"):
            from_bytes(container(doc, blob))

    @pytest.mark.parametrize("key, value", [
        ("n_classes", "3"), ("n_classes", 3.0), ("n_classes", True),
        ("cls_output", ["cls"]), ("stage", 5),
    ])
    def test_meta_the_package_reads_has_its_json_type(self, key, value):
        doc, blob = split_container(to_bytes(build(), 32))
        doc["meta"][key] = value
        with pytest.raises(ModelFormatError, match=f"meta field '{key}' is a {type(value).__name__}"):
            from_bytes(container(doc, blob))

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


def _load_and_use(doc, blob):
    """Load a document; whatever loads must also count, resolve and run, failing
    only in the documented way."""
    try:
        g, bits = from_bytes(container(doc, blob))
    except ModelFormatError:
        return
    assert bits in (16, 32) and g.nodes
    try:
        count_flops(g)
        resolve_groups(g)
        forward_arrays(g, np.full(g.input_shape, 0.5, dtype=np.float32))
    except SlimgraphError:
        pass


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=6), _json_values(), st.booleans())
def test_fuzzed_topology_raises_only_format_errors(path_choices, value, delete):
    doc, blob = split_container(SMALL)
    _mutate(doc, path_choices, value, delete)
    _load_and_use(doc, blob)


# every node kind, active quantizers included, on small maps
ALL_KINDS = to_bytes(calibrate(insert_fakequant(build_mini_net("ecoweed_mini", (1, 3, 32, 32), 3)),
                               [np.random.default_rng(0).random((2, 3, 32, 32), np.float32)]), 16)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 1000), st.lists(st.integers(0, 1000), min_size=1, max_size=4),
       _json_values(), st.booleans())
def test_fuzzed_nodes_of_every_kind_raise_only_format_errors(node, path_choices, value, delete):
    doc, blob = split_container(ALL_KINDS)
    _mutate(doc["nodes"][node % len(doc["nodes"])], path_choices, value, delete)
    _load_and_use(doc, blob)


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
