"""Versioned binary container for graphs and weights.

Layout:  ``TWNM`` magic | u32 LE version (1) | u64 LE topology length |
topology document (canonical JSON) | little-endian weight blob | u32 LE
CRC32 of the blob. Topology is human-readable on purpose: the structure
diffs cleanly in golden tests while weights stay compact.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
import zlib

import numpy as np

from .errors import GraphError, ModelFormatError, ShapeError
from .graph import Graph, Node, infer_shapes

MAGIC = b"TWNM"
VERSION = 1

_DTYPES = {32: "<f4", 16: "<f2"}
_DTYPE_TAGS = {"<f4": "f32", "<f2": "f16"}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}


def to_bytes(graph: Graph, precision_bits: int = 32) -> bytes:
    """Serialize a graph at the given float precision."""
    if precision_bits not in _DTYPES:
        raise ModelFormatError(f"unsupported precision {precision_bits}, want 32 or 16")
    np_dtype = np.dtype(_DTYPES[precision_bits])
    tag = _DTYPE_TAGS[_DTYPES[precision_bits]]

    blob_parts = []
    offset = 0
    node_docs = []
    for nid in graph.nodes:  # stored in construction order
        n = graph.nodes[nid]
        tensors = []
        for name in sorted(n.params):
            arr = n.params[name]
            data = np.ascontiguousarray(arr, dtype=np_dtype).tobytes()
            tensors.append([name, tag, list(arr.shape), offset, int(arr.size)])
            blob_parts.append(data)
            offset += len(data)
        node_docs.append({
            "id": n.id,
            "kind": n.kind,
            "attrs": n.attrs,
            "protected": n.protected,
            "inputs": [[src, port] for (src, port) in n.inputs],
            "tensors": tensors,
        })
    doc = {
        "name": graph.name,
        "input_shape": list(graph.input_shape),
        "meta": graph.meta,
        "precision": precision_bits,
        "nodes": node_docs,
    }
    topo = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")
    blob = b"".join(blob_parts)
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<Q", len(topo))
    out += topo
    out += blob
    out += struct.pack("<I", zlib.crc32(blob) & 0xFFFFFFFF)
    return bytes(out)


def save(graph: Graph, precision_bits: int, path) -> int:
    """Atomically write the container; returns bytes written."""
    data = to_bytes(graph, precision_bits)
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".twnm-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return len(data)


def from_bytes(data: bytes) -> tuple[Graph, int]:
    """Parse a container; returns (graph, precision_bits)."""
    if len(data) < 16:
        raise ModelFormatError(f"file truncated: {len(data)} bytes is smaller than the header")
    if data[:4] != MAGIC:
        raise ModelFormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != VERSION:
        raise ModelFormatError(f"unsupported container version {version}, this reader handles {VERSION}")
    (topo_len,) = struct.unpack_from("<Q", data, 8)
    topo_end = 16 + topo_len
    if topo_end + 4 > len(data):
        raise ModelFormatError("file truncated inside the topology document")
    try:
        doc = json.loads(data[16:topo_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ModelFormatError(f"topology document unparseable: {e}") from e

    blob = data[topo_end:-4]
    (crc_stored,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(blob) & 0xFFFFFFFF != crc_stored:
        raise ModelFormatError("weight blob checksum mismatch")

    g, precision = _graph_from_doc(doc, blob)
    try:
        g.validate()
        infer_shapes(g)
    # attrs and tensor ranks are read by the shape rules; on a loaded document
    # their failures mean the container is malformed, not the program
    except (GraphError, ShapeError, KeyError, IndexError, TypeError, ValueError,
            ArithmeticError) as e:
        raise ModelFormatError(f"inconsistent topology: {type(e).__name__}: {e}") from e
    return g, precision


def _field(d, key, kind, where):
    """d[key], checked to be a JSON value of the given Python type."""
    if not isinstance(d, dict) or key not in d:
        raise ModelFormatError(f"{where} lacks the field {key!r}")
    v = d[key]
    if not isinstance(v, kind) or (isinstance(v, bool) and kind is not bool):
        raise ModelFormatError(f"{where} field {key!r} is a {type(v).__name__}")
    return v


def _is_int(v, lo=0) -> bool:
    return type(v) is int and v >= lo


def _graph_from_doc(doc, blob: bytes) -> tuple[Graph, int]:
    precision = _field(doc, "precision", int, "topology")
    if precision not in _DTYPES:
        raise ModelFormatError(f"unsupported precision {precision} in topology")
    input_shape = _field(doc, "input_shape", list, "topology")
    if not all(_is_int(d, 1) for d in input_shape):
        raise ModelFormatError(f"input_shape {input_shape} is not a list of positive ints")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ModelFormatError(f"topology field 'meta' is a {type(meta).__name__}")
    g = Graph(_field(doc, "name", str, "topology"), input_shape, meta)
    spans = []
    for nd in _field(doc, "nodes", list, "topology"):
        nid = _field(nd, "id", str, "node")
        where = f"node {nid!r}"
        inputs = _field(nd, "inputs", list, where)
        if not all(isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
                   and _is_int(e[1]) for e in inputs):
            raise ModelFormatError(f"{where} inputs {inputs} are not [node id, port] pairs")
        params = {}
        for t in _field(nd, "tensors", list, where):
            if not (isinstance(t, list) and len(t) == 5 and isinstance(t[0], str)
                    and isinstance(t[2], list) and all(_is_int(d) for d in t[2])
                    and _is_int(t[3]) and _is_int(t[4])):
                raise ModelFormatError(
                    f"{where} tensor entry {t} is not [name, tag, shape, offset, nelems]")
            name, tag, shape, offset, nelems = t
            if tag not in _TAG_DTYPES:
                raise ModelFormatError(f"unknown tensor dtype tag {tag!r}")
            if nelems != math.prod(shape):
                raise ModelFormatError(
                    f"tensor {nid}.{name} holds {nelems} elements but has shape {shape}")
            dt = np.dtype(_TAG_DTYPES[tag])
            nbytes = nelems * dt.itemsize
            if offset + nbytes > len(blob):
                raise ModelFormatError(f"tensor {nid}.{name} extends past the weight blob")
            spans.append((offset, offset + nbytes, f"{nid}.{name}"))
            arr = np.frombuffer(blob, dtype=dt, count=nelems, offset=offset)
            arr = arr.reshape(shape).astype(np.float32)  # halves upcast for execution
            params[name] = np.ascontiguousarray(arr)
        try:
            g.add(Node(nid, _field(nd, "kind", str, where), _field(nd, "attrs", dict, where),
                       params, [tuple(e) for e in inputs],
                       _field(nd, "protected", bool, where)))
        except GraphError as e:
            raise ModelFormatError(str(e)) from e
    spans.sort()
    for (a0, a1, na), (b0, _, nb) in zip(spans, spans[1:]):
        if b0 < a1:
            raise ModelFormatError(f"tensor directory overlap between {na} and {nb}")
    return g, precision


def load(path) -> tuple[Graph, int]:
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as e:
        raise ModelFormatError(f"cannot read model file {path}: {e}") from e
    return from_bytes(data)
