"""Dense array operators used by the graph executor.

The kernels compute with numpy alone and never write to their inputs. They return new
arrays, except that a 1x1 stride-1 unpadded conv's patches are its input, reshaped.
They keep the input's dtype, so tests can drive them in float64; graphs run float32
(batch, channel, height, width) maps. Stride and padding are ints, the same on both
spatial axes, and pool windows are square. A forward keeps what only its backward reads
when asked, as its rule asks exactly when a tape records the node: conv2d_forward its
patches (``need_cols``), batchnorm_train_forward its normalized map (``need_cache``)
and maxpool2d_forward each window's argmax (``need_arg``).

conv2d lowers each image to a channel-major (C*kh*kw, Ho*Wo) patch matrix, rows in the
weight's (channel, kh, kw) order, and multiplies the (Cout, C*kh*kw) weight matrix by
it, one GEMM per image; the (N, Cout, Ho*Wo) result is NCHW already. The reduction
order depends only on the shapes, so identical inputs give identical bits.

One walk serves every k x k window kernel: ``_taps`` yields each tap that reads the
map, with the windows it reads in and the cells it reads there. No kernel builds a
padded frame: the gather copies each tap into patches whose cells in padding are zero,
the scatter adds it into a zero gradient of the input's shape, and the maxpool argmax
compares its cells with y; the running maxima walk the same taps along one axis at a
time. Pool padding is at most k // 2, as in PyTorch, so every window holds a map cell.

On a map of at most 64 cells the per-tap slices are a few floats long and numpy's
per-call cost rules, so one GEMM with a cached read-only 0/1 selection matrix gathers
or scatters instead. The gather equals the slices in value, but a -0.0 cell reads +0.0;
the scatter sums in another order, so it differs in float rounding. A 0*inf term would
spread NaN over a whole (image, channel) row, so a non-finite operand takes the slices.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import QuantError, ShapeError


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _conv_out_dims(h, w, kh, kw, stride, padding):
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError(
            f"conv/pool output collapses: input {h}x{w}, kernel {kh}x{kw}, "
            f"stride {stride}, padding {padding} -> {ho}x{wo}")
    return ho, wo


def _tap_slices(size, out_size, i, stride, padding):
    """(window slice, cell slice) along one axis of a map framed by ``padding`` cells:
    the windows whose tap i lies in the map, and the cells it reads there; None if none."""
    lo = max(0, -((i - padding) // stride))  # window o reads cell o * stride + i - padding
    hi = min(out_size, (size - 1 + padding - i) // stride + 1)
    if lo >= hi:
        return None
    first = lo * stride + i - padding
    return slice(lo, hi), slice(first, first + stride * (hi - lo - 1) + 1, stride)


def _taps(size, out_size, kh, kw, stride, padding):
    """The one window walk: for each tap (i, j) that reads the (H, W) map in some window,
    in window order, i, j and the index of those windows in an (..., Ho, Wo) array and of
    the cells they read in an (..., H, W) one."""
    (h, w), (ho, wo) = size, out_size
    along_w = [_tap_slices(w, wo, j, stride, padding) for j in range(kw)]
    for i in range(kh):
        rows = _tap_slices(h, ho, i, stride, padding)
        for j, cols in enumerate(along_w):
            if rows and cols:
                yield i, j, (..., rows[0], cols[0]), (..., rows[1], cols[1])


_SMALL_MAP = 64  # input cells up to which the selection GEMM beats per-tap slices
# Bytes of patches above which an untaped conv works in image chunks. At 1 MiB a QAT
# training step at batch 16 took about 2000 minor page faults, against about 400 at 2 MiB:
# no untaped pass then freed a block as large as the step's own patches, so glibc kept
# its mmap and trim thresholds low and returned the step's memory after every step.
_COLS_BUDGET = 2 << 20


@functools.cache  # keyed by maps of at most 64 cells, so it stays small
def _selection(h, w, kh, kw, stride, padding, dtype):
    """Read-only 0/1 (H*W, kh*kw*Ho*Wo) matrix: column (i, j, oy, ox) holds a 1 in the
    row of the input cell that tap (i, j) of output (oy, ox) reads, none in padding."""
    ho, wo = _conv_out_dims(h, w, kh, kw, stride, padding)
    i, j, oy, ox = np.indices((kh, kw, ho, wo)).reshape(4, -1)
    r, c = oy * stride + i - padding, ox * stride + j - padding
    inside = (r >= 0) & (r < h) & (c >= 0) & (c < w)
    u = np.zeros((h * w, kh * kw * ho * wo), dtype)
    u[(r * w + c)[inside], np.flatnonzero(inside)] = 1
    u.flags.writeable = False
    return u


def _scatter_slices(g6, x_shape, stride, padding):
    """Sum (N, C, kh, kw, Ho, Wo) per-tap gradients onto x, one slice add per tap."""
    gx = np.zeros(x_shape, dtype=g6.dtype)
    for i, j, win, cell in _taps(x_shape[2:], g6.shape[4:], *g6.shape[2:4], stride, padding):
        gx[cell] += g6[:, :, i, j][win]
    return gx


def _scatter_taps(g6, x_shape, stride, padding):
    """Sum (N, C, kh, kw, Ho, Wo) per-tap gradients onto the (N,C,H,W) input the taps read."""
    n, c, h, w = x_shape
    if h * w <= _SMALL_MAP:
        u = _selection(h, w, *g6.shape[2:4], stride, padding, g6.dtype)
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite gx is discarded
            gx = (g6.reshape(n * c, u.shape[1]) @ u.T).reshape(x_shape)
        if np.isfinite(gx).all():  # else a non-finite g6 term spread over its row: use slices
            return gx
    return _scatter_slices(g6, x_shape, stride, padding)


def _gather_slices(x, kh, kw, stride, padding, ho, wo):
    """(N, C, kh, kw, Ho, Wo) patches of x, one slice copy per tap; padding reads 0."""
    cols = (np.zeros if padding else np.empty)(x.shape[:2] + (kh, kw, ho, wo), dtype=x.dtype)
    for i, j, win, cell in _taps(x.shape[2:], (ho, wo), kh, kw, stride, padding):
        cols[:, :, i, j][win] = x[cell]
    return cols


def _gathers_by_gemm(x):
    """Whether x's patches take the small-map GEMM; 0*inf would spread NaN over a row."""
    return x.shape[2] * x.shape[3] <= _SMALL_MAP and np.isfinite(x).all()


def _im2col(x, kh, kw, stride, padding, gemm=None):
    """Per-image (N, C*kh*kw, Ho*Wo) patches; 1x1 is a view. ``gemm`` picks the small-map
    GEMM or the slices, by default as ``_gathers_by_gemm(x)``."""
    n, c, h, w = x.shape
    if kh == kw == stride == 1 and padding == 0:
        return x.reshape(n, c, h * w)
    ho, wo = _conv_out_dims(h, w, kh, kw, stride, padding)
    if gemm is None:
        gemm = _gathers_by_gemm(x)
    if gemm:
        cols = x.reshape(n * c, h * w) @ _selection(h, w, kh, kw, stride, padding, x.dtype)
    else:
        cols = _gather_slices(x, kh, kw, stride, padding, ho, wo)
    return cols.reshape(n, c * kh * kw, ho * wo)


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


def conv2d_forward(x, w, b=None, stride=1, padding=0, need_cols=True):
    """Cross-correlation; returns (y, cols), cols the patch matrix conv2d_backward takes
    with ``need_cols``, else None.

    One loop gathers and multiplies chunks of images into y: the whole batch with
    ``need_cols`` or for a 1x1 conv, else as many images as fit ``_COLS_BUDGET`` of
    patches, at least one. Each image's GEMM is the same call in any chunk, and the
    small-map GEMM gather is chosen once per batch, so y is the same bit for bit, and
    an untaped forward holds one chunk's patches whatever the batch.
    """
    _validate_conv_args(x, w, b)
    n, c, h, wd = x.shape
    cout, _, kh, kw = w.shape
    w2 = w.reshape(cout, -1)
    ho, wo = _conv_out_dims(h, wd, kh, kw, stride, padding)
    whole = need_cols or (kh == kw == stride == 1 and padding == 0)  # 1x1 patches are x
    chunk = max(1, n if whole else _COLS_BUDGET // (c * kh * kw * ho * wo * x.itemsize))
    gemm = None if whole else _gathers_by_gemm(x)  # once per batch, as one chunk decides
    y = np.empty((n, cout, ho * wo), np.result_type(w, x))
    for i in range(0, max(n, 1), chunk):  # an empty batch is one empty chunk
        cols = _im2col(x[i:i + chunk], kh, kw, stride, padding, gemm)
        np.matmul(w2, cols, out=y[i:i + chunk])
        cols = cols if need_cols else None  # a chunk's patches die before the next gather
    if b is not None:
        y += b[:, None]
    return y.reshape(n, cout, ho, wo), cols


def conv2d_backward(gy, x_shape, w, cols, stride=1, padding=0, with_bias=True, need_gx=True):
    """Gradients of conv2d: returns (gx or None, gw, gb or None).

    Reads the input only through its forward's ``cols`` and ``x_shape``, so ``cols``
    is the one array a tape keeps for it.
    """
    cout, _, kh, kw = w.shape
    gy3 = gy.reshape(gy.shape[0], cout, gy.shape[2] * gy.shape[3])  # sized: N may be 0
    gw = (gy3 @ cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gb = gy3.sum(axis=(0, 2)) if with_bias else None
    gx = None
    if need_gx:  # column gradients (N, C*kh*kw, Ho*Wo) scattered back onto x
        gcols = w.reshape(cout, -1).T @ gy3
        if kh == kw == stride == 1 and padding == 0:
            gx = gcols.reshape(x_shape)
        else:
            g6 = gcols.reshape(x_shape[:2] + (kh, kw) + gy.shape[2:])
            gx = _scatter_taps(g6, x_shape, stride, padding)
    return gx, gw, gb


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def _validate_bn_args(arrays, names, c):
    for a, name in zip(arrays, names):
        if a.shape != (c,):
            raise ShapeError(f"batchnorm {name} length {a.shape} != channel count {c}")


def batchnorm_infer(x, gamma, beta, mean, var, eps):
    """Per-channel affine normalization with stored statistics."""
    if x.ndim != 4:
        raise ShapeError(f"batchnorm input must be 4-D, got rank {x.ndim}")
    c = x.shape[1]
    _validate_bn_args((gamma, beta, mean, var), ("gamma", "beta", "mean", "var"), c)
    if not np.all(var >= 0):
        raise ShapeError("batchnorm variance must be non-negative")
    inv = gamma / np.sqrt(var + eps)
    y = x * inv[None, :, None, None]
    y += (beta - mean * inv)[None, :, None, None]
    return y


def batchnorm_train_forward(x, gamma, beta, eps, need_cache=True):
    """Normalize with the population (ddof=0) mean and variance over (N, H, W) of each
    channel; returns (y, (xhat, inv, mu, var)) for backward.

    Without ``need_cache``, y is built in xhat's buffer, the same bit for bit, and the
    cache's xhat is None; the statistics still come back for the running buffers.
    """
    c = x.shape[1]
    _validate_bn_args((gamma, beta), ("gamma", "beta"), c)
    m = x.shape[0] * x.shape[2] * x.shape[3]
    mu = x.mean(axis=(0, 2, 3))
    xhat = x - mu[None, :, None, None]
    var = np.einsum("nchw,nchw->c", xhat, xhat) / m
    inv = 1.0 / np.sqrt(var + eps)
    xhat *= inv[None, :, None, None]
    g = gamma[None, :, None, None]
    y = xhat * g if need_cache else np.multiply(xhat, g, out=xhat)
    y += beta[None, :, None, None]
    return y, (xhat if need_cache else None, inv, mu, var)


def batchnorm_train_backward(gy, gamma, cache):
    """Gradients for batch-statistics normalization:
    gx = gamma*inv * (gy - dbeta/m - xhat*dgamma/m)."""
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


def silu_derivative(x, s):
    """d(x·s)/dx = s·(1 + x·(1-s)) for s = sigmoid(x)."""
    d = 1.0 - s
    d *= x
    d += 1.0
    d *= s
    return d


def add(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"add requires identical shapes, got {a.shape} vs {b.shape}")
    return a + b


def multiply(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"multiply requires identical shapes, got {a.shape} vs {b.shape}")
    return a * b


def scale_channels(x, s):
    """Per-channel multiplication of a (N,C,H,W) map by a length-C vector."""
    if x.ndim != 4 or s.shape != (x.shape[1],):
        raise ShapeError(
            f"scale_channels needs 4-D input and per-channel vector, got {x.shape} and {s.shape}")
    return x * s[None, :, None, None]


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


def _pool_out_dims(h, w, k, stride, padding):
    if padding > k // 2:  # a wider frame adds windows of padding alone, whose max is -inf
        raise ShapeError(f"maxpool padding {padding} exceeds k // 2 = {k // 2} for k = {k}")
    return _conv_out_dims(h, w, k, k, stride, padding)


def _running_max(a, k, stride, padding, axis):
    """Max over the k-cell windows along ``axis`` of a framed by ``padding`` -inf cells.

    From a -inf start, each tap's pass covers only the windows whose tap lies in a:
    a frame cell would never change a max. The running max is the second operand,
    which ``np.maximum`` returns on a tie, so of equal cells (0.0 and -0.0) the
    first along the axis wins.
    """
    size = (a.shape[axis] + 2 * padding - k) // stride + 1
    out = np.full(a.shape[:axis] + (size,) + a.shape[axis + 1:], -np.inf, dtype=a.dtype)
    lead = (slice(None),) * axis
    for i in range(k):
        taps = _tap_slices(a.shape[axis], size, i, stride, padding)
        if taps:
            o = lead + (taps[0],)
            np.maximum(a[lead + (taps[1],)], out[o], out=out[o])
    return out


def _first_argmax(x, y, k, stride, padding):
    """Per window, the index in window order of the first tap holding the max ``y``,
    a NaN matching a NaN: what ``argmax`` over the -inf-padded window gives. A window
    whose max is -inf holds only -inf, frame cells included, so its tap 0 wins.
    The smallest unsigned dtype that holds k*k - 1."""
    arg = np.zeros(y.shape, np.min_scalar_type(k * k - 1))
    nan = np.isnan(y).any()  # a window's max is NaN exactly when it holds a NaN
    taps = list(_taps(x.shape[2:], y.shape[2:], k, k, stride, padding))
    for i, j, win, cell in reversed(taps):  # each tap overwrites the later taps' hits
        hit = x[cell] == y[win]
        if nan:
            hit |= np.isnan(x[cell])
        np.copyto(arg[win], i * k + j, where=hit)
    arg[y == -np.inf] = 0
    return arg


def maxpool2d_forward(x, k, stride, padding, need_arg=False):
    """Max over k x k windows; returns (y, argmax index into each window or None).

    y is the exact window max, NaN included, and of tied cells the first in window
    order. With ``need_arg``, the argmax is the first tap of each window equal to y,
    found with no copy of the windows.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool input must be 4-D, got rank {x.ndim}")
    _pool_out_dims(x.shape[2], x.shape[3], k, stride, padding)
    y = _running_max(_running_max(x, k, stride, padding, 3), k, stride, padding, 2)
    return y, (_first_argmax(x, y, k, stride, padding) if need_arg else None)


def maxpool2d_backward(gy, arg, x_shape, k, stride, padding):
    """Route each window's gradient to its argmax cell, summing where windows overlap."""
    n, c, ho, wo = gy.shape
    gwin = np.zeros((n, c, ho, wo, k * k), dtype=gy.dtype)
    np.put_along_axis(gwin, arg[..., None], gy[..., None], axis=-1)
    g6 = gwin.reshape(n, c, ho, wo, k, k).transpose(0, 1, 4, 5, 2, 3)
    return _scatter_taps(g6, x_shape, stride, padding)


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


# ---------------------------------------------------------------------------
# int8 quantize-dequantize (public as ``slimgraph.fakequant``'s)
# ---------------------------------------------------------------------------

QMIN, QMAX = -128, 127  # the signed int8 range a quantizer clamps to


def qdq(x: np.ndarray, scale: float) -> np.ndarray:
    """Quantize-dequantize: clamp(round_half_to_even(x/scale)) * scale."""
    if scale <= 0:
        raise QuantError(f"qdq scale must be positive, got {scale}")
    q = np.divide(x, scale)  # the one allocation; the other steps run in place
    np.rint(q, out=q)
    q.clip(QMIN, QMAX, out=q)  # the method skips two of np.clip's Python layers
    q *= scale
    return q.astype(x.dtype, copy=False)


def ste_mask(x: np.ndarray, scale: float) -> np.ndarray:
    """Where ``x`` lies inside the clamp range [QMIN·scale, QMAX·scale], as bools.

    All the clipped straight-through estimator needs of ``x``; NaN lies outside."""
    inside = np.greater_equal(x, QMIN * scale)
    inside &= np.less_equal(x, QMAX * scale)
    return inside


def qdq_backward(upstream_grad: np.ndarray, inside: np.ndarray) -> np.ndarray:
    """Clipped straight-through estimator: the gradient where ``inside``
    (``ste_mask`` of the forward input), zero elsewhere."""
    g = inside.astype(upstream_grad.dtype)
    g *= upstream_grad  # 1*g and 0*g, bit for bit what upstream_grad*inside gives
    return g
