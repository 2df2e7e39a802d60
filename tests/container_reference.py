"""The original container serializer, kept as an oracle.

This is ``modelio.to_bytes`` as first written: it copies each tensor with
``tobytes``, joins the copies, appends the parts to a ``bytearray`` and copies
that into ``bytes``. The library instead joins the cast tensors once and
chains the CRC over them; the bytes must not change.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from slimgraph.errors import ExportError, ModelFormatError
from slimgraph.modelio import HALF_MAX, MAGIC, VERSION

_DTYPES = {32: "<f4", 16: "<f2"}
_DTYPE_TAGS = {"<f4": "f32", "<f2": "f16"}


def reference_to_bytes(graph, precision_bits: int = 32) -> bytes:
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
            if precision_bits == 16:
                if not np.all(np.isfinite(arr)):
                    raise ExportError(f"tensor {n.id}.{name} contains non-finite values")
                peak = float(np.abs(arr).max()) if arr.size else 0.0
                if peak > HALF_MAX:
                    raise ExportError(
                        f"tensor {n.id}.{name} magnitude {peak:.4g} overflows half precision")
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
