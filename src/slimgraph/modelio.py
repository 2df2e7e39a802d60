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
import sys
import zlib

import numpy as np

from .errors import ExportError, GraphError, ModelFormatError
from .graph import Graph, Node, infer_shapes
from .kinds import is_int

MAGIC = b"TWNM"
VERSION = 1
HALF_MAX = 65504.0  # largest finite binary16 magnitude

_DTYPES = {32: "<f4", 16: "<f2"}
_DTYPE_TAGS = {"<f4": "f32", "<f2": "f16"}
_TAG_DTYPES = {v: k for k, v in _DTYPE_TAGS.items()}
_META_FIELDS = {"n_classes": int, "cls_output": str, "stage": str}  # the meta the package reads


def _layout(graph: Graph, precision_bits: int):
    """(topology document bytes, tensors keyed by (node id, name) in blob order: nodes in
    graph order, each one's tensors by name; blob dtype, blob length).

    At 16 bits a non-finite weight or one beyond the half-precision range is
    an ``ExportError``: silent inf weights mean training went wrong.
    """
    if precision_bits not in _DTYPES:
        raise ModelFormatError(f"unsupported precision {precision_bits}, want 32 or 16")
    np_dtype = np.dtype(_DTYPES[precision_bits])
    tag = _DTYPE_TAGS[_DTYPES[precision_bits]]

    arrays = {}
    offset = 0
    node_docs = []
    for nid in graph.nodes:  # stored in construction order
        n = graph.nodes[nid]
        tensors = []
        for name in sorted(n.params):
            arr = n.params[name]
            if precision_bits == 16 and arr.size:
                hi, lo = float(arr.max()), float(arr.min())  # NaN or inf in one of them if any
                if not (math.isfinite(hi) and math.isfinite(lo)):
                    raise ExportError(f"tensor {n.id}.{name} contains non-finite values")
                peak = max(hi, -lo)  # from the values, not the cast: 65505 casts to 65504
                if peak > HALF_MAX:
                    raise ExportError(
                        f"tensor {n.id}.{name} magnitude {peak:.4g} overflows half precision")
            tensors.append([name, tag, list(arr.shape), offset, int(arr.size)])
            arrays[n.id, name] = arr
            offset += arr.size * np_dtype.itemsize
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
    return topo, arrays, np_dtype, offset


def container_size(graph: Graph, precision_bits: int = 32) -> tuple[int, int]:
    """(weight blob bytes, ``len(to_bytes(graph, precision_bits))``), without serializing
    the weights."""
    topo, _, _, blob_len = _layout(graph, precision_bits)
    return blob_len, 16 + len(topo) + blob_len + 4


def to_bytes(graph: Graph, precision_bits: int = 32) -> bytes:
    """Serialize a graph at the given float precision.

    At 16 bits, ``_layout`` raises ``ExportError`` for a weight binary16 cannot
    hold. Each tensor is cast once (not at all if already in the blob dtype), the
    CRC is chained over the casts, and one join copies them into the result.
    """
    return _encode(graph, precision_bits)[0]


def _encode(graph: Graph, precision_bits: int):
    """(``to_bytes`` result, each tensor's one cast keyed as ``_layout`` keys it)."""
    topo, arrays, np_dtype, _ = _layout(graph, precision_bits)
    blob = {key: np.ascontiguousarray(arr, dtype=np_dtype) for key, arr in arrays.items()}
    crc = 0
    for data in blob.values():
        crc = zlib.crc32(data, crc)
    return b"".join([MAGIC, struct.pack("<IQ", VERSION, len(topo)), topo, *blob.values(),
                     struct.pack("<I", crc & 0xFFFFFFFF)]), blob


def save(graph: Graph, precision_bits: int, path) -> int:
    """Write the container through ``save_bytes``; returns bytes written."""
    return save_bytes(to_bytes(graph, precision_bits), path)


def _descriptor(path) -> int | None:
    """The descriptor of this process that ``path`` reaches through its links (``/dev/stdout``,
    ``/dev/stderr``, ``/dev/fd/N``, ``/proc/self/fd/N``), else None."""
    path = os.path.abspath(path)
    for _ in range(40):  # the kernel's own limit on links followed
        head, tail = os.path.split(path)
        if tail.isdigit() and os.path.realpath(head) in (f"/proc/{os.getpid()}/fd", "/dev/fd"):
            return int(tail)
        if not os.path.islink(path):
            return None
        path = os.path.join(head, os.readlink(path))
    return None


def save_bytes(data: bytes, path) -> int:
    """Write ``data`` to ``path``; returns bytes written. Every file the package writes,
    models and their text sidecars, logs and reports (UTF-8), goes through here.

    A path that reaches an open descriptor (``/dev/stdout``, ``/dev/fd/N``) is written
    through that descriptor, at its offset, whatever it is open on: a regular file keeps
    its inode and what was written before. Any other target that exists and is not a
    regular file (a FIFO, a device) is written in place, as ``open`` writes it. Both
    flush Python's own streams first, so the bytes land in order with what the process
    prints.
    Any other path is resolved through symlinks, so a link keeps pointing at its
    target, and written atomically: a temp file beside the resolved path, created as
    ``open`` creates files (mode 0o666 less the umask), then renamed into place; on any
    failure it is removed and the old file stays intact. A rewrite therefore replaces
    the file: a hard link to the old file keeps the old bytes, and the new file takes
    the umask's mode, not the old file's.
    """
    fd = _descriptor(path)
    if fd is not None or (os.path.exists(path) and not os.path.isfile(path)):
        for stream in (sys.stdout, sys.stderr):
            stream.flush()
        with open(path if fd is None else fd, "wb", closefd=fd is None) as f:
            f.write(data)
        return len(data)
    path = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(path), f".slimgraph-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
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

    blob = memoryview(data)[topo_end:-4]  # a view: each tensor's astype makes its own copy
    (crc_stored,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(blob) & 0xFFFFFFFF != crc_stored:
        raise ModelFormatError("weight blob checksum mismatch")

    g, precision = _graph_from_doc(doc, blob)
    try:
        # each node's arity, attrs and tensors against its kind's spec, then the widths
        infer_shapes(g, order=g.validate())
    except GraphError as e:
        raise ModelFormatError(f"inconsistent topology: {e}") from e
    return g, precision


def _field(d, key, kind, where):
    """d[key], checked to be a JSON value of the given Python type."""
    if not isinstance(d, dict) or key not in d:
        raise ModelFormatError(f"{where} lacks the field {key!r}")
    v = d[key]
    if not isinstance(v, kind) or (isinstance(v, bool) and kind is not bool):
        raise ModelFormatError(f"{where} field {key!r} is a {type(v).__name__}")
    return v


def _is_shape(v) -> bool:
    """A list of ints >= 1; each entry's type is read in C, and JSON's only int type other
    than ``int`` is ``bool``, which ``is_int`` refuses too."""
    return isinstance(v, list) and {*map(type, v)} <= {int} and min(v, default=1) >= 1


def _graph_from_doc(doc, blob: memoryview) -> tuple[Graph, int]:
    precision = _field(doc, "precision", int, "topology")
    if precision not in _DTYPES:
        raise ModelFormatError(f"unsupported precision {precision} in topology")
    input_shape = _field(doc, "input_shape", list, "topology")
    if not _is_shape(input_shape):
        raise ModelFormatError(f"input_shape {input_shape} is not a list of positive ints")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ModelFormatError(f"topology field 'meta' is a {type(meta).__name__}")
    for key, kind in _META_FIELDS.items():
        if key in meta:
            _field(meta, key, kind, "topology meta")
    g = Graph(_field(doc, "name", str, "topology"), input_shape, meta)
    spans = []
    for nd in _field(doc, "nodes", list, "topology"):
        nid = _field(nd, "id", str, "node")
        where = f"node {nid!r}"
        inputs = _field(nd, "inputs", list, where)
        if not all(isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
                   and is_int(e[1]) for e in inputs):
            raise ModelFormatError(f"{where} inputs {inputs} are not [node id, port] pairs")
        params = {}
        for t in _field(nd, "tensors", list, where):
            if not (isinstance(t, list) and len(t) == 5 and isinstance(t[0], str)
                    and isinstance(t[1], str) and _is_shape(t[2]) and is_int(t[3]) and is_int(t[4])):
                raise ModelFormatError(
                    f"{where} tensor entry {t} is not [name, tag, shape, offset, nelems]")
            name, tag, shape, offset, nelems = t
            if name in params:
                raise ModelFormatError(f"tensor {nid}.{name} is listed twice")
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
            params[name] = arr.reshape(shape).astype(np.float32)  # a C-order copy; halves upcast
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
