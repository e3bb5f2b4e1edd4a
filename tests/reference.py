"""Independent brute-force implementations used as test oracles.

Everything in this module is deliberately written the slow, obvious way
(nested python loops, float64, no shared helpers with the package) so
that agreement with the package is meaningful. Do not "optimize" these.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# forward kernels
# ---------------------------------------------------------------------------

def conv2d_ref(x, w, b, stride=1, padding=0):
    """Cross-correlation, NCHW input, (F, C, kh, kw) kernel, loops only."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, c, h, wid = x.shape
    f, _, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wid + 2 * padding - kw) // stride + 1
    out = np.zeros((n, f, ho, wo), dtype=np.float64)
    for ni in range(n):
        for fi in range(f):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(c):
                        for p in range(kh):
                            for q in range(kw):
                                acc += (
                                    x[ni, ci, i * stride + p, j * stride + q]
                                    * w[fi, ci, p, q]
                                )
                    out[ni, fi, i, j] = acc + b[fi]
    return out


def max_pool2d_ref(x):
    """2x2 window, stride 2."""
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    out = np.zeros((n, c, h // 2, w // 2), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for i in range(h // 2):
                for j in range(w // 2):
                    out[ni, ci, i, j] = max(
                        x[ni, ci, 2 * i, 2 * j],
                        x[ni, ci, 2 * i, 2 * j + 1],
                        x[ni, ci, 2 * i + 1, 2 * j],
                        x[ni, ci, 2 * i + 1, 2 * j + 1],
                    )
    return out


def _conv_windows(x, kh, kw, stride, padding):
    """float32 padded input and its strided (N, C, kh, kw, Ho, Wo) windows."""
    xp = np.pad(np.asarray(x, dtype=np.float32), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c, h, w = xp.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    s0, s1, s2, s3 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, kh, kw, ho, wo),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    return xp, windows


def conv2d_tensordot_ref(x, w, b, stride=1, padding=0):
    """The package's conv2d forward as one float32 tensordot: its byte-exact oracle.

    Unlike the float64 oracles here this one keeps float32 and the exact
    operands of the GEMM (kernel as (F, C*kh*kw), windows as
    (C*kh*kw, N*Ho*Wo)), so a rewrite of the lowering must match it byte
    for byte, not to a tolerance.
    """
    w = np.asarray(w, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    _, windows = _conv_windows(x, w.shape[2], w.shape[3], stride, padding)
    out = np.tensordot(w, windows, axes=([1, 2, 3], [1, 2, 3]))
    out = np.ascontiguousarray(out.transpose(1, 0, 2, 3))
    out += b.reshape(1, -1, 1, 1)
    return out


def conv2d_tensordot_grads_ref(x, w, g, stride=1, padding=0):
    """conv2d's backward by tensordot and a batch-major scatter: (dx, dw, db).

    The byte-exact oracle for dx and db (dW's is ``conv2d_tap_dw_ref``),
    float32 like ``conv2d_tensordot_ref``; ``g`` is the upstream output
    gradient.
    """
    w = np.asarray(w, dtype=np.float32)
    g = np.asarray(g, dtype=np.float32)
    kh, kw = w.shape[2], w.shape[3]
    xp, windows = _conv_windows(x, kh, kw, stride, padding)
    ho, wo = g.shape[2], g.shape[3]
    db = g.sum(axis=(0, 2, 3))
    dw = np.tensordot(g, windows, axes=([0, 2, 3], [0, 4, 5]))
    dcols = np.tensordot(w, g, axes=([0], [1]))  # (C, kh, kw, N, Ho, Wo)
    dxp = np.zeros_like(xp)
    for p in range(kh):
        for q in range(kw):
            dxp[:, :, p : p + ho * stride : stride, q : q + wo * stride : stride] += (
                dcols[:, p, q].transpose(1, 0, 2, 3)
            )
    h, wid = xp.shape[2] - 2 * padding, xp.shape[3] - 2 * padding
    return dxp[:, :, padding : padding + h, padding : padding + wid], dw, db


def _pitched_g(g, wp):
    """float32 g laid out at row pitch wp: (F, N*span) with image n's
    output (i, j) in column n*span + i*wp + j, span = (Ho-1)*wp + Wo, and
    zeros in the columns j >= Wo; returns it and span."""
    g = np.asarray(g, dtype=np.float32)
    n, f, ho, wo = g.shape
    span = (ho - 1) * wp + wo
    gp = np.zeros((f, n * span), dtype=np.float32)
    for ni in range(n):
        for i in range(ho):
            start = ni * span + i * wp
            gp[:, start : start + wo] = g[ni, :, i, :]
    return gp, span


def conv2d_tap_dx_ref(x, w, g, stride=1, padding=0):
    """conv2d's dx as one float32 GEMM per kernel tap, added tap by tap.

    The byte-exact oracle for dx where the column gradient's one-GEMM
    bytes (``conv2d_tensordot_grads_ref``) are not kept, the single-channel
    layers. ``g`` is laid out at the padded input's row pitch as in
    ``conv2d_tap_dw_ref``; tap (p, q)'s (C, N*span) product is the
    kernel's (F, C) slice, transposed, times that g, and its image n
    block is added, in (p, q) order, to the padded dx's cells from flat
    cell p*Wp + q on, every stride-th of span. The padding is cut off.
    """
    w = np.asarray(w, dtype=np.float32)
    f, c, kh, kw = w.shape
    n, _, h, wid = np.shape(x)
    hp, wp = h + 2 * padding, wid + 2 * padding
    gp, span = _pitched_g(g, wp)
    dxp = np.zeros((n, c, hp * wp), dtype=np.float32)
    for p in range(kh):
        for q in range(kw):
            start = p * wp + q
            prod = w[:, :, p, q].T @ gp
            for ni in range(n):
                dxp[ni, :, start : start + stride * (span - 1) + 1 : stride] += prod[:, ni * span : (ni + 1) * span]
    dxp = dxp.reshape(n, c, hp, wp)
    return dxp[:, :, padding : padding + h, padding : padding + wid]


def conv2d_tap_dw_ref(x, w, g, stride=1, padding=0):
    """conv2d's dW as one small float32 GEMM per kernel tap and image.

    The byte-exact oracle for dW. ``g`` is laid out at the padded
    input's row pitch Wp: per filter, image n's output (i, j) is column
    n*span + i*Wp + j, span = (Ho-1)*Wp + Wo, and the columns j >= Wo are
    zero. Tap (p, q)'s (F, C) gradient is the sum, in image order, of
    image n's g columns times the padded input's cells from flat cell
    p*Wp + q on, every stride-th of span, transposed: the same operands,
    read in place, that BLAS gets from the package.
    """
    f, c, kh, kw = np.shape(w)
    xp = np.pad(np.asarray(x, dtype=np.float32), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, _, hp, wp = xp.shape
    gp, span = _pitched_g(g, wp)
    flat = xp.reshape(n, c, hp * wp)
    dw = np.zeros((f, c, kh, kw), dtype=np.float32)
    for p in range(kh):
        for q in range(kw):
            start = p * wp + q
            acc = None
            for ni in range(n):
                cells = flat[ni, :, start : start + stride * (span - 1) + 1 : stride]
                term = gp[:, ni * span : (ni + 1) * span] @ cells.T
                acc = term if acc is None else acc + term
            dw[:, :, p, q] = acc
    return dw


def conv2d_dw_ref(x, g, kh, kw, stride=1, padding=0):
    """conv2d's kernel gradient for upstream gradient ``g``, float64 loops:
    dw[f, c, p, q] = sum over n, i, j of g[n, f, i, j] * x_pad[n, c, i*stride + p, j*stride + q]."""
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c = x.shape[:2]
    _, f, ho, wo = g.shape
    dw = np.zeros((f, c, kh, kw), dtype=np.float64)
    for ni in range(n):
        for fi in range(f):
            for ci in range(c):
                for p in range(kh):
                    for q in range(kw):
                        acc = 0.0
                        for i in range(ho):
                            for j in range(wo):
                                acc += g[ni, fi, i, j] * x[ni, ci, i * stride + p, j * stride + q]
                        dw[fi, ci, p, q] += acc
    return dw


def conv2d_padded_width_ref(x, w, b, stride=1, padding=0):
    """conv2d's forward as one float32 GEMM at the padded input's row pitch.

    The byte-exact oracle for the forward where the GEMM's columns are not
    laid out as in ``conv2d_tensordot_ref``: output (i, j) of image n is
    column n*span + i*Wp + j of kernel (F, C*kh*kw) times the
    (C*kh*kw, N*span) matrix whose row (c, p, q) reads image n's channel c
    from flat cell p*Wp + q on, every stride-th cell, span = (Ho-1)*Wp + Wo
    cells. The columns j >= Wo are computed and dropped, so BLAS gets the
    same call as from the package.
    """
    w = np.asarray(w, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    f, c, kh, kw = w.shape
    xp = np.pad(np.asarray(x, dtype=np.float32), ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, _, hp, wp = xp.shape
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    span = (ho - 1) * wp + wo
    flat = xp.reshape(n, c, hp * wp)
    rows = np.empty((c, kh, kw, n, span), dtype=np.float32)
    for p in range(kh):
        for q in range(kw):
            start = p * wp + q
            rows[:, p, q] = flat[:, :, start : start + stride * (span - 1) + 1 : stride].transpose(1, 0, 2)
    wide = np.dot(w.reshape(f, -1), rows.reshape(c * kh * kw, n * span)).reshape(f, n, span)
    cells = (np.arange(ho)[:, None] * wp + np.arange(wo)).reshape(-1)
    out = wide[:, :, cells].reshape(f, n, ho, wo).transpose(1, 0, 2, 3)
    return np.ascontiguousarray(out) + b.reshape(1, -1, 1, 1)


def max_pool2d_argmax_ref(x, g):
    """2x2/2 max-pool by argmax over each window, float32: (out, dx).

    ``dx`` routes each upstream gradient ``g`` to the first maximal cell
    of its window in (0,0), (0,1), (1,0), (1,1) order, the rule argmax
    applies to ties; the package's pool must match both byte for byte.
    """
    x = np.asarray(x, dtype=np.float32)
    g = np.asarray(g, dtype=np.float32)
    n, c, h, w = x.shape
    h2, w2 = h // 2, w // 2
    windows = x.reshape(n, c, h2, 2, w2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h2, w2, 4)
    idx = windows.argmax(axis=-1)
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    d4 = np.zeros((n, c, h2, w2, 4), dtype=np.float32)
    np.put_along_axis(d4, idx[..., None], g[..., None], axis=-1)
    dx = d4.reshape(n, c, h2, w2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)
    return out, dx


def max_pool2d_where_grad_ref(x, g):
    """max_pool2d's backward as four ``np.where`` corner selects, float32.

    The byte-exact oracle for the pool's select: the first maximal cell
    of each window, in (0,0), (0,1), (1,0), (1,1) order, gets ``g`` and
    every other cell +0.0 (no cell of a window holding NaN matches).
    """
    x = np.asarray(x, dtype=np.float32)
    g = np.asarray(g, dtype=np.float32)
    corners = [x[:, :, i::2, j::2] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1))]
    out = np.maximum(np.maximum(corners[0], corners[1]), np.maximum(corners[2], corners[3]))
    dx = np.empty_like(x)
    free = np.ones(out.shape, dtype=bool)
    for (i, j), corner in zip(((0, 0), (0, 1), (1, 0), (1, 1)), corners):
        hit = (corner == out) & free
        dx[:, :, i::2, j::2] = np.where(hit, g, np.float32(0.0))
        free &= ~hit
    return dx


def dense_ref(x, w, b):
    """(N, D) @ (D, M) + (M,), accumulated with python loops."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, d = x.shape
    m = w.shape[1]
    out = np.zeros((n, m), dtype=np.float64)
    for ni in range(n):
        for mi in range(m):
            acc = 0.0
            for di in range(d):
                acc += x[ni, di] * w[di, mi]
            out[ni, mi] = acc + b[mi]
    return out


def upsample2x_ref(x):
    x = np.asarray(x, dtype=np.float64)
    n, c, h, w = x.shape
    out = np.zeros((n, c, 2 * h, 2 * w), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for i in range(2 * h):
                for j in range(2 * w):
                    out[ni, ci, i, j] = x[ni, ci, i // 2, j // 2]
    return out


def upsample2x_grad_sum_ref(g):
    """upsample2x's backward as one ``.sum`` over each 2x2 block: its
    byte-exact oracle (float32, the reduction order of the earlier form)."""
    g = np.asarray(g, dtype=np.float32)
    n, c, h2, w2 = g.shape
    return g.reshape(n, c, h2 // 2, 2, w2 // 2, 2).sum(axis=(3, 5))


def concat_channels_ref(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, ca, h, w = a.shape
    cb = b.shape[1]
    out = np.zeros((n, ca + cb, h, w), dtype=np.float64)
    out[:, :ca] = a
    out[:, ca:] = b
    return out


def relu_ref(x):
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, x, 0.0)


def relu_where_ref(x, g):
    """relu and its backward as float32 ``np.where`` selects: (out, dx).

    The byte-exact oracle for the branch-free relu: ``x > 0`` keeps x
    and g, everything else (NaN, -0.0, negatives) gives +0.0.
    """
    x = np.asarray(x, dtype=np.float32)
    g = np.asarray(g, dtype=np.float32)
    mask = x > 0
    return np.where(mask, x, np.float32(0.0)), np.where(mask, g, np.float32(0.0))


def sigmoid_ref(x):
    x = np.asarray(x, dtype=np.float64)
    return 1.0 / (1.0 + np.exp(-x))


def softmax_rows_ref(x):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for i in range(x.shape[0]):
        z = x[i] - x[i].max()
        e = np.exp(z)
        out[i] = e / e.sum()
    return out


# ---------------------------------------------------------------------------
# losses (mean over batch, sum over remaining axes; dice is global)
# ---------------------------------------------------------------------------

def mse_ref(pred, target):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    n = pred.shape[0]
    return float(((pred - target) ** 2).sum() / n)


def bce_ref(pred, target, eps=1e-7):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    n = pred.shape[0]
    p = np.clip(pred, eps, 1.0 - eps)
    el = -(target * np.log(p) + (1.0 - target) * np.log(1.0 - p))
    return float(el.sum() / n)


def dice_ref(pred, target, eps=1e-6):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    inter = float((pred * target).sum())
    total = float(pred.sum() + target.sum())
    return 1.0 - (2.0 * inter + eps) / (total + eps)


def smooth_l1_ref(pred, target):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    n = pred.shape[0]
    d = pred - target
    el = np.where(np.abs(d) < 1.0, 0.5 * d * d, np.abs(d) - 0.5)
    return float(el.sum() / n)


def softmax_xent_ref(logits, target):
    logits = np.asarray(logits, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    n = logits.shape[0]
    total = 0.0
    for i in range(n):
        z = logits[i] - logits[i].max()
        logp = z - math.log(np.exp(z).sum())
        total += -(target[i] * logp).sum()
    return float(total / n)


# ---------------------------------------------------------------------------
# numeric differentiation
# ---------------------------------------------------------------------------

def numeric_grad(f, x, eps=1e-3):
    """Central-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return g


def rel_err(got, want):
    """Max absolute deviation, relative to the oracle's magnitude."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    denom = max(float(np.abs(want).max(initial=0.0)), 1e-6)
    return float(np.abs(got - want).max(initial=0.0)) / denom


# ---------------------------------------------------------------------------
# image geometry
# ---------------------------------------------------------------------------

def resize_bilinear_ref(px, out_w, out_h):
    """Half-pixel-center bilinear resize with edge clamping, loops only."""
    px = np.asarray(px, dtype=np.float64)
    h, w = px.shape
    out = np.zeros((out_h, out_w), dtype=np.float64)
    sx = w / out_w
    sy = h / out_h
    for i in range(out_h):
        for j in range(out_w):
            src_x = (j + 0.5) * sx - 0.5
            src_y = (i + 0.5) * sy - 0.5
            x0 = math.floor(src_x)
            y0 = math.floor(src_y)
            fx = src_x - x0
            fy = src_y - y0
            x0c = min(max(x0, 0), w - 1)
            x1c = min(max(x0 + 1, 0), w - 1)
            y0c = min(max(y0, 0), h - 1)
            y1c = min(max(y0 + 1, 0), h - 1)
            top = px[y0c, x0c] * (1 - fx) + px[y0c, x1c] * fx
            bot = px[y1c, x0c] * (1 - fx) + px[y1c, x1c] * fx
            out[i, j] = top * (1 - fy) + bot * fy
    return out


def resize_bilinear_gather_ref(px, out_w, out_h):
    """The package's resize as one float32 2-D gather: its byte-exact oracle.

    Unlike the float64 oracles here this one keeps float32 and the exact
    operation order (x-blend of both tapped rows, y-blend, clip), so the
    separable resize must match it byte for byte, not to a tolerance.
    """
    px = np.asarray(px, dtype=np.float32)
    h, w = px.shape
    if (out_w, out_h) == (w, h):
        return px.copy()
    xs = (np.arange(out_w, dtype=np.float32) + 0.5) * (w / out_w) - 0.5
    ys = (np.arange(out_h, dtype=np.float32) + 0.5) * (h / out_h) - 0.5
    return _gather_ref(px, ys, xs)


def _gather_ref(px, ys, xs):
    """Bilinear float32 2-D gather of ``px`` at the grid of row
    coordinates ``ys`` and column coordinates ``xs``, clamped to its edges."""
    h, w = px.shape
    out_h, out_w = len(ys), len(xs)
    xs = np.clip(np.broadcast_to(xs, (out_h, out_w)), 0.0, w - 1.0)
    ys = np.clip(np.broadcast_to(ys[:, None], (out_h, out_w)), 0.0, h - 1.0)
    x0 = np.floor(xs).astype(np.intp)
    y0 = np.floor(ys).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = (xs - x0).astype(np.float32)
    fy = (ys - y0).astype(np.float32)
    top = px[y0, x0] * (1.0 - fx) + px[y0, x1] * fx
    bot = px[y1, x0] * (1.0 - fx) + px[y1, x1] * fx
    return np.clip(top * (1.0 - fy) + bot * fy, 0.0, 1.0)


def chain_maps_ref(shape, steps):
    """The per-axis maps of a resize/turn/crop chain on a (h, w) array.

    A step is ("resize", w, h), ("turn", k) with ``np.rot90``'s k, or
    ("crop", x0, y0, x1, y1). Returns (row map, column map, output
    shape). A map is [source axis, s, t, flip]: output index k along an
    axis of extent n reads source coordinate (k + 0.5) * s + t, or that
    of index n - 1 - k when flipped. Each step is composed with the same
    float64 operations as the package's lazy images.
    """
    h, w = shape
    ym, xm = [0, 1.0, -0.5, False], [1, 1.0, -0.5, False]

    def flip(m):
        return [m[0], m[1], m[2], not m[3]]

    def cropped(m, lo, hi, n):
        return [m[0], m[1], m[2] + (n - hi if m[3] else lo) * m[1], m[3]]

    for step in steps:
        if step[0] == "resize":
            _, nw, nh = step
            ym = [ym[0], ym[1] * (h / nh), ym[2], ym[3]]
            xm = [xm[0], xm[1] * (w / nw), xm[2], xm[3]]
            h, w = nh, nw
        elif step[0] == "crop":
            _, x0, y0, x1, y1 = step
            ym, xm = cropped(ym, y0, y1, h), cropped(xm, x0, x1, w)
            h, w = y1 - y0, x1 - x0
        else:
            k = step[1] % 4
            if k == 1:
                ym, xm, h, w = flip(xm), ym, w, h
            elif k == 2:
                ym, xm = flip(ym), flip(xm)
            elif k == 3:
                ym, xm, h, w = xm, flip(ym), w, h
    return ym, xm, (h, w)


def chain_gather_ref(px, steps):
    """A resize/turn/crop chain as one float32 2-D gather of ``px`` at the
    composed coordinates: the byte-exact oracle of a lazy image.

    Like ``resize_bilinear_gather_ref`` it keeps float32 and the exact
    operation order (x-blend of both tapped rows, y-blend, clip), in the
    source's orientation; the result is then reversed and transposed.
    """
    px = np.asarray(px, dtype=np.float32)
    ym, xm, out_shape = chain_maps_ref(px.shape, steps)
    swap = ym[0] == 1  # the output's rows run along the source's columns
    if swap:
        ym, xm = xm, ym
    out_h, out_w = out_shape[::-1] if swap else out_shape
    ys = (np.arange(out_h, dtype=np.float32) + 0.5) * ym[1] + ym[2]
    xs = (np.arange(out_w, dtype=np.float32) + 0.5) * xm[1] + xm[2]
    out = _gather_ref(px, ys, xs)[::-1 if ym[3] else 1, ::-1 if xm[3] else 1]
    return np.ascontiguousarray(out.T if swap else out)


def chain_sample_ref(px, steps):
    """A resize/turn/crop chain (steps as in ``chain_maps_ref``), loops only.

    Each output pixel center is walked back through the steps in float64
    (a resize by its half-pixel-center map, a crop by its offset, a
    quarter turn by index reversal) and sampled bilinearly from ``px``,
    clamped at ``px``'s edges and at no intermediate's.
    """
    px = np.asarray(px, dtype=np.float64)
    shapes = [px.shape]
    for step in steps:
        h, w = shapes[-1]
        if step[0] == "resize":
            shapes.append((step[2], step[1]))
        elif step[0] == "crop":
            shapes.append((step[4] - step[2], step[3] - step[1]))
        else:
            shapes.append((w, h) if step[1] % 2 else (h, w))
    src_h, src_w = px.shape
    out_h, out_w = shapes[-1]
    out = np.zeros((out_h, out_w), dtype=np.float64)
    for i in range(out_h):
        for j in range(out_w):
            y, x = float(i), float(j)
            for n in reversed(range(len(steps))):
                step, (h, w), (nh, nw) = steps[n], shapes[n], shapes[n + 1]
                if step[0] == "resize":
                    y = (y + 0.5) * h / nh - 0.5
                    x = (x + 0.5) * w / nw - 0.5
                elif step[0] == "crop":
                    y, x = y + step[2], x + step[1]
                else:
                    # undo one +90 turn at a time: out[i, j] = in[j, in_w - 1 - i]
                    for t in range(step[1] % 4, 0, -1):
                        in_w = w if t % 2 else h
                        y, x = x, in_w - 1 - y
            y = min(max(y, 0.0), src_h - 1.0)
            x = min(max(x, 0.0), src_w - 1.0)
            y0, x0 = math.floor(y), math.floor(x)
            y1, x1 = min(y0 + 1, src_h - 1), min(x0 + 1, src_w - 1)
            fy, fx = y - y0, x - x0
            top = px[y0, x0] * (1 - fx) + px[y0, x1] * fx
            bot = px[y1, x0] * (1 - fx) + px[y1, x1] * fx
            out[i, j] = top * (1 - fy) + bot * fy
    return out


def rot90_ref(px):
    """Quarter turn: the old top-right corner becomes the new top-left."""
    px = np.asarray(px, dtype=np.float64)
    h, w = px.shape
    out = np.zeros((w, h), dtype=np.float64)
    for i in range(w):
        for j in range(h):
            out[i, j] = px[j, w - 1 - i]
    return out


def rotate_bilinear_ref(px, degrees):
    """Rotation about the image center, bilinear interpolation.

    A destination pixel whose back-rotated source point falls outside the
    pixel-center rectangle [0, w-1] x [0, h-1] is 0; points exactly on the
    boundary still interpolate (the outer tap has zero weight there).
    """
    px = np.asarray(px, dtype=np.float64)
    h, w = px.shape
    theta = math.radians(degrees)
    c, s = math.cos(theta), math.sin(theta)
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    out = np.zeros((h, w), dtype=np.float64)
    for i in range(h):
        for j in range(w):
            dx = j - cx
            dy = i - cy
            src_x = c * dx - s * dy + cx
            src_y = s * dx + c * dy + cy
            if not (0.0 <= src_x <= w - 1.0 and 0.0 <= src_y <= h - 1.0):
                continue
            x0 = math.floor(src_x)
            y0 = math.floor(src_y)
            fx = src_x - x0
            fy = src_y - y0
            acc = 0.0
            for (yy, wy) in ((y0, 1 - fy), (y0 + 1, fy)):
                for (xx, wx) in ((x0, 1 - fx), (x0 + 1, fx)):
                    acc += px[min(yy, h - 1), min(xx, w - 1)] * wy * wx
            out[i, j] = acc
    return out


def shift_ref(px, dx, dy):
    """Translate content by (dx, dy); vacated pixels are 0."""
    px = np.asarray(px, dtype=np.float64)
    h, w = px.shape
    out = np.zeros_like(px)
    for i in range(h):
        for j in range(w):
            si = i - dy
            sj = j - dx
            if 0 <= si < h and 0 <= sj < w:
                out[i, j] = px[si, sj]
    return out


def flip_h_ref(px):
    px = np.asarray(px, dtype=np.float64)
    h, w = px.shape
    out = np.zeros_like(px)
    for i in range(h):
        for j in range(w):
            out[i, j] = px[i, w - 1 - j]
    return out


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def mae_ref(pairs):
    total = 0.0
    for expert, system in pairs:
        total += abs(system - expert)
    return total / len(pairs)


def mape_ref(pairs):
    total = 0.0
    for expert, system in pairs:
        total += abs(system - expert) / abs(expert)
    return total / len(pairs)


def _ranks(values):
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def spearman_ref(a, b):
    """Rank correlation with average ranks for ties."""
    ra = _ranks(list(map(float, a)))
    rb = _ranks(list(map(float, b)))
    n = len(ra)
    ma = sum(ra) / n
    mb = sum(rb) / n
    num = sum((x - ma) * (y - mb) for x, y in zip(ra, rb))
    da = math.sqrt(sum((x - ma) ** 2 for x in ra))
    db = math.sqrt(sum((y - mb) ** 2 for y in rb))
    if da == 0 or db == 0:
        return 0.0
    return num / (da * db)


def iou_grid_ref(a, b, scale=10):
    """Box IoU by counting cells on a fine grid.

    Boxes are (x, y, w, h) tuples whose coordinates are exact multiples
    of 1/scale, so the rasterization is exact.
    """
    def cells(box):
        x, y, w, h = box
        x0, y0 = round(x * scale), round(y * scale)
        x1, y1 = round((x + w) * scale), round((y + h) * scale)
        return {(i, j) for i in range(x0, x1) for j in range(y0, y1)}

    ca, cb = cells(a), cells(b)
    union = len(ca | cb)
    if union == 0:
        return 0.0
    return len(ca & cb) / union


def dice_mask_ref(a, b):
    """Mask overlap 2|A.B| / (|A|+|B|) by explicit counting."""
    a = np.asarray(a) >= 0.5
    b = np.asarray(b) >= 0.5
    inter = 0
    ta = 0
    tb = 0
    h, w = a.shape
    for i in range(h):
        for j in range(w):
            if a[i, j]:
                ta += 1
            if b[i, j]:
                tb += 1
            if a[i, j] and b[i, j]:
                inter += 1
    if ta + tb == 0:
        return 1.0
    return 2.0 * inter / (ta + tb)


# ---------------------------------------------------------------------------
# optimizer hand traces
# ---------------------------------------------------------------------------

def adam_trace_ref(p0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    p = float(p0)
    m = 0.0
    v = 0.0
    out = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p -= lr * m_hat / (math.sqrt(v_hat) + eps)
        out.append(p)
    return out
