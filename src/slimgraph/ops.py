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
padded frame: the slice gather copies each tap into patches whose cells in padding are
zero, the scatter adds it into a zero gradient of the input's shape, and the maxpool
argmax compares its cells with y; the running maxima walk the same taps along one axis
at a time. Pool padding is at most k // 2, as in PyTorch, so every window holds a map cell.

``_gather_for`` picks a conv's gather once per batch. Where each stride phase
x[a::s, b::s] of the map is an Ho x Wo grid, as in a "same" conv at stride 1 or at
stride 2 on even sides (every 3x3 conv of the presets and fragments), and the batch has
at least ``_SHIFT_CELLS`` patch values per tap, the shifts copy each phase once into the
slot of the tap that reads it unshifted, fill each other tap with one flat shifted copy
of its phase and zero the cells in padding: the slices' bytes, -0.0 and NaN included,
from a few long copies. Else on a map of at most 64 cells the per-tap slices are a few
floats long and numpy's per-call cost rules, so one GEMM with a cached read-only 0/1
selection matrix gathers instead: it equals the slices in value, but a -0.0 cell reads
+0.0, and a 0*inf term would spread NaN over a whole (image, channel) row, so a
non-finite map takes the slices. Every other shape takes the slices. The scatter takes
the GEMM on maps of at most 64 cells, where it sums in another order than the slices and
so differs in float rounding, unless its sum is non-finite.
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
# Patch values per tap (planes x Ho x Wo) from which the shifts gather. Swept over the
# preset and fragment convs at batch 1 and 16, they were faster on every shape at or
# above it except a 256-plane 16x16 map gathered whole at batch 16, as only a tape
# does; below it the GEMM was faster on 4x4 and 2x2 maps at batch 16 (2048-8192).
_SHIFT_CELLS = 12288
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


@functools.cache  # slices and ints, one entry per conv shape
def _shift_plan(h, w, kh, kw, stride, padding):
    """How ``_gather_shifts`` fills the (kh*kw, Ho*Wo) patches of an (H, W) map, or None
    unless each stride phase x[a::stride, b::stride] is an Ho x Wo grid that some tap reads
    unshifted. Tap (i, j) reads phase (a, b) shifted by di rows and dj columns, where
    divmod(i - padding, stride) is (di, a) and divmod(j - padding, stride) is (dj, b).

    Returns the (tap, rows, cols) strided copies that write each phase into the slot of
    the tap that reads it unshifted, none at stride 1, where the phase is x; then per other
    tap (tap, source slot or None for x, cells written, cells read, flat ranges to zero,
    window columns to zero or None). Its copy is shifted by di*Wo + dj flat cells: the
    cells it writes from another row lie in the zeroed columns, and those it has no cell
    for in the zeroed head or tail, all of them taps in padding."""
    ho, wo = _conv_out_dims(h, w, kh, kw, stride, padding)
    if (h, w) != (ho * stride, wo * stride):
        return None
    m = ho * wo
    taps = [(i * kw + j, divmod(i - padding, stride), divmod(j - padding, stride))
            for i in range(kh) for j in range(kw)]
    slot = {(a, b): t for t, (di, a), (dj, b) in taps if di == dj == 0}
    if any((a, b) not in slot for _, (_, a), (_, b) in taps):
        return None
    phases = () if stride == 1 else tuple(
        (t, slice(a, None, stride), slice(b, None, stride)) for (a, b), t in slot.items())
    shifts = []
    for t, (di, a), (dj, b) in taps:
        if stride > 1 and slot[a, b] == t:
            continue
        d = di * wo + dj
        lo = min(m, max(0, -d))
        hi = max(lo, min(m, m - d))
        zeros = tuple(z for z in (slice(0, lo), slice(hi, m)) if z.start < z.stop)
        window_cols = (slice(0, min(wo, -dj)) if dj < 0 else
                       slice(max(0, wo - dj), wo) if dj > 0 else None)
        shifts.append((t, None if stride == 1 else slot[a, b], slice(lo, hi),
                       slice(lo + d, hi + d), zeros, window_cols))
    return phases, tuple(shifts)


def _gather_shifts(x, kh, kw, stride, padding, ho, wo):
    """``_gather_slices``' patches byte for byte, -0.0 and NaN included, by the
    ``_shift_plan`` of x's shape: one strided copy per stride phase, then one flat shifted
    copy per other tap, whose cells in padding are then zeroed."""
    n, c, h, w = x.shape
    phases, shifts = _shift_plan(h, w, kh, kw, stride, padding)
    cols = np.empty((n, c, kh * kw, ho * wo), x.dtype)
    grid = cols.reshape(n, c, kh * kw, ho, wo)
    for t, rows, cells in phases:
        grid[:, :, t] = x[:, :, rows, cells]
    flat = None if phases else x.reshape(n, c, h * w)  # at stride 1 the taps read x
    for t, src, into, outof, zeros, window_cols in shifts:
        cols[:, :, t, into] = (flat if src is None else cols[:, :, src])[..., outof]
        for z in zeros:
            cols[:, :, t, z] = 0
        if window_cols is not None:
            grid[:, :, t, :, window_cols] = 0
    return cols.reshape(n, c, kh, kw, ho, wo)


def _gather_gemm(x, kh, kw, stride, padding, ho, wo):
    """(N*C, kh*kw*Ho*Wo) patches of x by the selection GEMM; a -0.0 cell reads +0.0."""
    n, c, h, w = x.shape
    return x.reshape(n * c, h * w) @ _selection(h, w, kh, kw, stride, padding, x.dtype)


def _gather_for(x, kh, kw, stride, padding):
    """The gather of x's patches: the shifts if its stride phases are Ho x Wo grids and it
    has at least ``_SHIFT_CELLS`` patch values per tap; else the small-map GEMM on a finite
    map of at most ``_SMALL_MAP`` cells (0*inf would spread NaN over a row); else the slices."""
    n, c, h, w = x.shape
    plan = _shift_plan(h, w, kh, kw, stride, padding)
    if plan is not None and n * c * (h // stride) * (w // stride) >= _SHIFT_CELLS:
        return _gather_shifts
    if h * w <= _SMALL_MAP and np.isfinite(x).all():
        return _gather_gemm
    return _gather_slices


def _im2col(x, kh, kw, stride, padding, gather=None):
    """Per-image (N, C*kh*kw, Ho*Wo) patches; 1x1 is a view. ``gather`` is the shifts, the
    small-map GEMM or the slices kernel, by default the one ``_gather_for`` picks for x."""
    n, c, h, w = x.shape
    if kh == kw == stride == 1 and padding == 0:
        return x.reshape(n, c, h * w)
    ho, wo = _conv_out_dims(h, w, kh, kw, stride, padding)
    gather = gather or _gather_for(x, kh, kw, stride, padding)
    return gather(x, kh, kw, stride, padding, ho, wo).reshape(n, c * kh * kw, ho * wo)


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
    gather is chosen once per batch, so y is the same bit for bit, and an untaped
    forward holds one chunk's patches whatever the batch.
    """
    _validate_conv_args(x, w, b)
    n, c, h, wd = x.shape
    cout, _, kh, kw = w.shape
    w2 = w.reshape(cout, -1)
    ho, wo = _conv_out_dims(h, wd, kh, kw, stride, padding)
    whole = need_cols or (kh == kw == stride == 1 and padding == 0)  # 1x1 patches are x
    chunk = max(1, n if whole else _COLS_BUDGET // (c * kh * kw * ho * wo * x.itemsize))
    gather = None if whole else _gather_for(x, kh, kw, stride, padding)  # once per batch
    y = np.empty((n, cout, ho * wo), np.result_type(w, x))
    for i in range(0, max(n, 1), chunk):  # an empty batch is one empty chunk
        cols = _im2col(x[i:i + chunk], kh, kw, stride, padding, gather)
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
