"""Dense array operators used by the graph executor.

All functions are pure: they validate shapes, compute with numpy alone, and
return new arrays, never writing to their inputs. The elementwise kernels
allocate their result once and finish it with in-place ``out=`` steps, so each
makes as few passes over memory as its formula allows. Data layout is (batch,
channel, height, width) for feature maps, row-major, float32 inside graphs.
The functions preserve the input dtype so tests can drive them in float64 for
tight finite-difference comparisons.

conv2d lowers each image to a channel-major (C*kh*kw, Ho*Wo) patch matrix whose
rows follow the weight's fixed (channel, kh, kw) order, and multiplies it by
the (Cout, C*kh*kw) weight matrix in one batched matmul; the (N, Cout, Ho*Wo)
result is NCHW already. The reduction order depends only on the shapes, so
repeated runs on identical inputs are bit-identical.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def _pair(v) -> tuple[int, int]:
    if isinstance(v, (tuple, list)):
        a, b = v
        return int(a), int(b)
    return int(v), int(v)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _conv_out_dims(h, w, kh, kw, sh, sw, ph, pw):
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"conv/pool output collapses: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride ({sh},{sw}), padding ({ph},{pw}) -> {ho}x{wo}")
    return ho, wo


def _im2col(x, kh, kw, sh, sw, ph, pw):
    """Per-image (N, C*kh*kw, Ho*Wo) patches: one slice copy per tap; 1x1 is a view."""
    n, c, h, w = x.shape
    ho, wo = _conv_out_dims(h, w, kh, kw, sh, sw, ph, pw)
    if kh == kw == 1 and sh == sw == 1 and ph == pw == 0:
        return x.reshape(n, c, h * w), ho, wo
    if ph or pw:
        xp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        xp[:, :, ph:ph + h, pw:pw + w] = x
    else:
        xp = x
    cols = np.empty((n, c, kh, kw, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw]
    return cols.reshape(n, c * kh * kw, ho * wo), ho, wo


def _col2im(gcols, x_shape, kh, kw, sh, sw, ph, pw):
    """Scatter-add (N, C*kh*kw, Ho*Wo) column gradients back onto (N,C,H,W)."""
    n, c, h, w = x_shape
    ho, wo = _conv_out_dims(h, w, kh, kw, sh, sw, ph, pw)
    if kh == kw == 1 and sh == sw == 1 and ph == pw == 0:
        return gcols.reshape(n, c, h, w)
    g6 = gcols.reshape(n, c, kh, kw, ho, wo)
    gxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=gcols.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += g6[:, :, i, j]
    if ph or pw:
        return np.ascontiguousarray(gxp[:, :, ph:ph + h, pw:pw + w])
    return gxp


def _validate_conv_args(x, w, b):
    if x.ndim != 4:
        raise ShapeError(f"conv2d input must be 4-D (N,C,H,W), got rank {x.ndim}")
    if w.ndim != 4:
        raise ShapeError(f"conv2d weight must be 4-D (Cout,Cin,Kh,Kw), got rank {w.ndim}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(
            f"conv2d channel mismatch: input Cin={x.shape[1]} vs weight Cin={w.shape[1]}")
    if b is not None and b.shape != (w.shape[0],):
        raise ShapeError(
            f"conv2d bias length {b.shape} does not match Cout={w.shape[0]}")


def conv2d_forward(x, w, b=None, stride=1, padding=0, keep_cols=False):
    """Cross-correlation; returns (y, cols) where cols is kept for backward."""
    _validate_conv_args(x, w, b)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    cout, _, kh, kw = w.shape
    cols, ho, wo = _im2col(x, kh, kw, sh, sw, ph, pw)
    y = w.reshape(cout, -1) @ cols
    if b is not None:
        y += b[:, None]
    return y.reshape(x.shape[0], cout, ho, wo), (cols if keep_cols else None)


def conv2d(x, w, b=None, stride=1, padding=0):
    """2-D cross-correlation over (N,C,H,W) input with (Cout,Cin,Kh,Kw) weight."""
    y, _ = conv2d_forward(x, w, b, stride, padding)
    return y


def conv2d_backward(gy, x, w, cols, stride=1, padding=0, with_bias=True, need_gx=True):
    """Gradients of conv2d: returns (gx or None, gw, gb or None)."""
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    cout, _, kh, kw = w.shape
    gy3 = gy.reshape(gy.shape[0], cout, -1)
    if cols is None:
        cols, _, _ = _im2col(x, kh, kw, sh, sw, ph, pw)
    gw = (gy3 @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gb = gy3.sum(axis=(0, 2)) if with_bias else None
    gx = None
    if need_gx:
        gcols = w.reshape(cout, -1).T @ gy3
        gx = _col2im(gcols, x.shape, kh, kw, sh, sw, ph, pw)
    return gx, gw, gb


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _validate_bn_args(x, arrays, names, c):
    for a, name in zip(arrays, names):
        if a.shape != (c,):
            raise ShapeError(f"batchnorm {name} length {a.shape} != channel count {c}")


def batchnorm_infer(x, gamma, beta, mean, var, eps=1e-5):
    """Per-channel affine normalization with stored statistics."""
    if x.ndim != 4:
        raise ShapeError(f"batchnorm input must be 4-D, got rank {x.ndim}")
    c = x.shape[1]
    _validate_bn_args(x, (gamma, beta, mean, var), ("gamma", "beta", "mean", "var"), c)
    if np.any(var < 0):
        raise ShapeError("batchnorm variance must be non-negative")
    inv = gamma / np.sqrt(var + eps)
    y = x * inv[None, :, None, None]
    y += (beta - mean * inv)[None, :, None, None]
    return y


def batchnorm_train_forward(x, gamma, beta, eps=1e-5):
    """Normalize with batch statistics; returns (y, cache) for backward.

    Uses population (ddof=0) mean/variance over (N, H, W) per channel: the
    map is centred once and the variance is the mean square of that centred
    map, which is then normalised in place into ``xhat``.
    """
    c = x.shape[1]
    _validate_bn_args(x, (gamma, beta), ("gamma", "beta"), c)
    m = x.shape[0] * x.shape[2] * x.shape[3]
    mu = x.mean(axis=(0, 2, 3))
    xhat = x - mu[None, :, None, None]
    var = np.einsum("nchw,nchw->c", xhat, xhat) / m
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv[None, :, None, None]
    y = xhat * gamma[None, :, None, None]
    y += beta[None, :, None, None]
    return y, (xhat, inv, mu, var)


def batchnorm_train_backward(gy, gamma, cache):
    """Gradients for batch-statistics normalization.

    gx = gamma*inv * (gy - dbeta/m - xhat*dgamma/m), built in one buffer.
    """
    xhat, inv, _, _ = cache
    m = gy.shape[0] * gy.shape[2] * gy.shape[3]
    dgamma = np.einsum("nchw,nchw->c", gy, xhat)
    dbeta = gy.sum(axis=(0, 2, 3))
    gx = xhat * (-dgamma / m)[None, :, None, None]
    gx += gy
    gx -= (dbeta / m)[None, :, None, None]
    gx *= (gamma * inv)[None, :, None, None]
    return gx, dgamma, dbeta


# ---------------------------------------------------------------------------
# elementwise and structural
# ---------------------------------------------------------------------------

def sigmoid(x):
    """Logistic function as 0.5 + 0.5*tanh(x/2): one allocation, three in-place steps.

    tanh saturates instead of overflowing, so no input raises a floating-point
    warning. In float32 the absolute error is at most 2e-7 everywhere, but
    relative accuracy is lost far in the negative tail, where the result is a
    small difference 0.5 - 0.5*|tanh|: the relative error is about 2e-4 at
    x = -10 and 3% at -15, and below about -20 the result is exactly 0.
    """
    s = np.multiply(x, 0.5)
    np.tanh(s, out=s)
    s *= 0.5
    s += 0.5
    return s


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add requires identical shapes, got {a.shape} vs {b.shape}")
    return a + b


def multiply(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"multiply requires identical shapes, got {a.shape} vs {b.shape}")
    return a * b


def concat_channels(parts):
    if not parts:
        raise ShapeError("concat_channels needs at least one input")
    base = parts[0].shape
    for i, p in enumerate(parts[1:], start=1):
        if p.shape[0] != base[0] or p.shape[2:] != base[2:]:
            raise ShapeError(
                f"concat input {i} has non-channel dims {p.shape} incompatible with {base}")
    return np.concatenate(parts, axis=1)


def split_channels(x, sizes):
    if any(s < 1 for s in sizes):
        raise ShapeError(f"split sizes must be positive, got {sizes}")
    if sum(sizes) != x.shape[1]:
        raise ShapeError(f"split sizes {sizes} do not sum to channel count {x.shape[1]}")
    out = []
    off = 0
    for s in sizes:
        out.append(np.ascontiguousarray(x[:, off:off + s]))
        off += s
    return out


def maxpool2d_forward(x, k, stride=None, padding=0):
    """Max pooling; returns (y, argmax) with argmax indices into each window."""
    if x.ndim != 4:
        raise ShapeError(f"maxpool input must be 4-D, got rank {x.ndim}")
    kh, kw = _pair(k)
    sh, sw = _pair(stride if stride is not None else k)
    ph, pw = _pair(padding)
    n, c, h, w = x.shape
    ho, wo = _conv_out_dims(h, w, kh, kw, sh, sw, ph, pw)
    # -inf padding so padded cells never win the max
    if ph or pw:
        xp = np.full((n, c, h + 2 * ph, w + 2 * pw), -np.inf, dtype=x.dtype)
        xp[:, :, ph:ph + h, pw:pw + w] = x
    else:
        xp = x
    sn, sc, sh_, sw_ = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, ho, wo, kh, kw),
        strides=(sn, sc, sh_ * sh, sw_ * sw, sh_, sw_),
        writeable=False,
    ).reshape(n, c, ho, wo, kh * kw)
    arg = win.argmax(axis=-1)
    y = np.ascontiguousarray(np.take_along_axis(win, arg[..., None], axis=-1)[..., 0])
    return y, arg


def maxpool2d(x, k, stride=None, padding=0):
    y, _ = maxpool2d_forward(x, k, stride, padding)
    return y


def maxpool2d_backward(gy, arg, x_shape, k, stride=None, padding=0):
    kh, kw = _pair(k)
    sh, sw = _pair(stride if stride is not None else k)
    ph, pw = _pair(padding)
    n, c, h, w = x_shape
    ho, wo = gy.shape[2], gy.shape[3]
    gwin = np.zeros((n, c, ho, wo, kh * kw), dtype=gy.dtype)
    np.put_along_axis(gwin, arg[..., None], gy[..., None], axis=-1)
    g6 = gwin.reshape(n, c, ho, wo, kh, kw)
    gxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=gy.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += g6[:, :, :, :, i, j]
    if ph or pw:
        return np.ascontiguousarray(gxp[:, :, ph:ph + h, pw:pw + w])
    return gxp


def global_avg_pool(x):
    if x.ndim != 4:
        raise ShapeError(f"global_avg_pool input must be 4-D, got rank {x.ndim}")
    return x.mean(axis=(2, 3))


def linear(x, w, b=None):
    if x.ndim != 2:
        raise ShapeError(f"linear input must be 2-D (N,Cin), got rank {x.ndim}")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear feature mismatch: input {x.shape[1]} vs weight {w.shape[1]}")
    y = x @ w.T
    if b is not None:
        if b.shape != (w.shape[0],):
            raise ShapeError(f"linear bias length {b.shape} != out features {w.shape[0]}")
        y = y + b
    return y
