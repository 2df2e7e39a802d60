"""Row-major im2col reference for the convolution operators.

This is the original lowering, kept as an independent oracle: one row of
``C*kh*kw`` patch values per output pixel of the whole batch, a single
``(N*Ho*Wo, C*kh*kw) @ (C*kh*kw, Cout)`` matmul, and an NHWC -> NCHW copy of
the result. The library builds a channel-major patch matrix per image instead,
so its results differ from these in rounding only; the property tests bound
that difference by the dtype.
"""

from __future__ import annotations

import numpy as np

from slimgraph.ops import _conv_out_dims, _pair


def im2col(x, kh, kw, sh, sw, ph, pw):
    """Rearrange (N,C,H,W) into (N*Ho*Wo, C*kh*kw) patch rows."""
    n, c, h, w = x.shape
    ho, wo = _conv_out_dims(h, w, kh, kw, sh, sw, ph, pw)
    if kh == kw == 1 and sh == sw == 1 and ph == pw == 0:
        return x.transpose(0, 2, 3, 1).reshape(n * h * w, c), ho, wo
    if ph or pw:
        xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        xp[:, :, ph:ph + h, pw:pw + w] = x
    else:
        xp = x
    sn, sc, sh_, sw_ = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, ho, wo, c, kh, kw),
        strides=(sn, sh_ * sh, sw_ * sw, sc, sh_, sw_),
        writeable=False,
    )
    return win.reshape(n * ho * wo, c * kh * kw), ho, wo


def col2im(gcols, x_shape, kh, kw, sh, sw, ph, pw):
    """Scatter-add patch-row gradients back onto the input layout."""
    n, c, h, w = x_shape
    ho, wo = _conv_out_dims(h, w, kh, kw, sh, sw, ph, pw)
    if kh == kw == 1 and sh == sw == 1 and ph == pw == 0:
        return np.ascontiguousarray(gcols.reshape(n, h, w, c).transpose(0, 3, 1, 2))
    g6 = np.ascontiguousarray(gcols.reshape(n, ho, wo, c, kh, kw).transpose(0, 3, 4, 5, 1, 2))
    gxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=gcols.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += g6[:, :, i, j]
    if ph or pw:
        return np.ascontiguousarray(gxp[:, :, ph:ph + h, pw:pw + w])
    return gxp


def conv2d_forward(x, w, b=None, stride=1, padding=0):
    """Cross-correlation through row-major patches; returns (y, cols)."""
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    cout, _, kh, kw = w.shape
    n = x.shape[0]
    cols, ho, wo = im2col(x, kh, kw, sh, sw, ph, pw)
    y2 = cols @ w.reshape(cout, -1).T
    if b is not None:
        y2 = y2 + b
    y = np.ascontiguousarray(y2.reshape(n, ho, wo, cout).transpose(0, 3, 1, 2))
    return y, cols


def conv2d_backward(gy, x, w, cols, stride=1, padding=0):
    """Gradients (gx, gw, gb) of the row-major forward."""
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    cout, _, kh, kw = w.shape
    gy2 = gy.transpose(0, 2, 3, 1).reshape(-1, cout)
    gw = (gy2.T @ cols).reshape(w.shape)
    gb = gy2.sum(axis=0)
    gx = col2im(gy2 @ w.reshape(cout, -1), x.shape, kh, kw, sh, sw, ph, pw)
    return gx, gw, gb
