"""Dense float32 tensors with reverse-mode automatic differentiation.

Everything the three networks need lives here: a Tensor wrapper around a
numpy array, a Tape that records operations, the layer primitives
(conv2d, max_pool2d, upsample2x, concat_channels, dense), activations,
and the training losses. Ops run forward-only when no tape is active,
which is what inference uses.

Conventions:
  * dtype is float32 everywhere; inputs are converted on construction.
  * losses reduce as mean over the batch axis, sum over remaining axes
    (dice is the exception: it is a global overlap ratio by definition).
  * gradients accumulate into Tensor.grad until optim.zero_grads clears them.
  * an op never writes into its input arrays: backward rules read the
    arrays they saw in the forward pass, relu's reads its own output.
  * the tape stack is per context (a ContextVar), so a tape records only
    the ops of the thread or task that opened it.

relu is branch-free and bit-exact with ``where(x > 0, x, 0)``:
``fmax(x, 0)`` maps NaN to 0, and adding +0.0 turns -0.0 into +0.0
while every other value, infinities and subnormals included, passes
unchanged. Its backward, and max_pool2d's, select with ``_keep``, which
ANDs g's bits with the sign-extended mask (all ones where true): that is
``where(mask, g, +0.0)`` exactly, -0.0 and NaN payloads in g included.

conv2d is lowered to GEMMs (im2col) at the padded input's row pitch Wp:
output (i, j) of image n is GEMM column n*span + i*Wp + j, with
span = (Ho-1)*Wp + Wo, so each tap's row of the column matrix is one run
of span cells per (c, n). Columns j >= Wo are junk: the forward drops
them, and the backward lays g out with them zeroed.

The backward needs no column matrix (kn2row, Vasudevan et al. 2017). It
walks the batch in groups of images and, per group, loops over taps
(p, q), reading and writing the input's cells from flat cell p*Wp + q
on, every stride-th. dW's (F, C) slice is the sum over images, in image
order, of the pitched g times those cells read in place: F x C GEMMs of
depth span, to which junk columns add zero products. At stride 1 BLAS
reads both operands where they lie, which ``@`` allows and ``np.dot``
(it copies them) does not. dx adds the kernel's (F, C) slice,
transposed, times the group's pitched g into the same cells, taps in
(p, q) order. With a finite kernel a junk column adds a signed zero; dx
starts at +0.0, and a round-to-nearest sum is -0.0 only when both
addends are, so dx never holds -0.0 and adding +-0.0 to it changes no bit.

A group is max(1, 4096 // span) images, the last one short, so its g,
input cells and dx product, some 4096 columns each, stay in a core's L2
across its kh*kw taps, where one pass over the whole batch streams them
from memory once per tap (cache blocking as in Goto and van de Geijn,
2008). Groups keep the bytes: every dW term is the same per-image GEMM,
added in the same image order; a dx column is the same sum over F
whichever columns share its GEMM; and each cell still takes its taps in
(p, q) order. Where N*span fits the budget the group is the whole batch.
A one-channel input is one group too: its dx product is a one-row GEMM,
which numpy hands to GEMV, and OpenBLAS's GEMV changes kernels with the
matrix's size, so splitting its columns moves bits (the pipeline never
takes that dx: the image needs no grad). The budget is fixed because it
changes only speed: on a 2 MiB-L2 core, budgets of 2048 to 6144 columns
timed alike, and all of them keep the bytes.

Where an image's span exceeds 512 columns, the forward copies and
multiplies its columns in blocks of 512 from the image's first column
on, the last block partial, so a call holds at most C*kh*kw x 512 floats
of columns; spans of up to 512 keep one GEMM over the batch. A block is
the same GEMM on fewer columns, every sum in the same K order; only the
kernel BLAS picks for a block's edge could round differently. On
OpenBLAS this keeps every pipeline conv's bytes at N = 1..16 with one
and two threads; narrower blocks, and small spans split by image, do not.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DimensionError

__all__ = [
    "Tensor",
    "Tape",
    "conv2d",
    "max_pool2d",
    "upsample2x",
    "concat_channels",
    "dense",
    "relu",
    "sigmoid",
    "softmax_rows",
    "flatten",
    "add",
    "scale",
    "select_rows",
    "loss",
    "softmax_cross_entropy",
]

_LOG_EPS = 1e-7  # probability clip for bce
_DICE_EPS = 1e-6


class Tensor:
    """A dense float32 array plus gradient bookkeeping.

    ``requires_grad`` marks leaves (parameters) whose gradient should be
    collected by :meth:`Tape.backward`. Intermediate results inherit the
    flag from their inputs while a tape is active.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float32)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g.astype(np.float32, copy=True)
        else:
            self.grad += g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class _TapeEntry:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable):
        self.out = out
        self.inputs = tuple(inputs)
        self.backward_fn = backward_fn


_TAPE_STACK: ContextVar[tuple] = ContextVar("boneage_tape_stack", default=())


class Tape:
    """Ordered record of differentiable operations.

    Entries are appended in execution order, so the list is already a
    topological order of the computation; the backward sweep walks it
    once in reverse.

    Use as a context manager around the forward pass::

        with Tape() as tape:
            out = dense(x, w, b)
            l = loss(out, target, "mse")
        tape.backward(l)
    """

    def __init__(self):
        self._entries: list[_TapeEntry] = []

    def __enter__(self) -> "Tape":
        _TAPE_STACK.set(_TAPE_STACK.get() + (self,))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = _TAPE_STACK.get()
        assert stack[-1] is self
        _TAPE_STACK.set(stack[:-1])

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def current() -> Optional["Tape"]:
        stack = _TAPE_STACK.get()
        return stack[-1] if stack else None

    def record(self, out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> None:
        self._entries.append(_TapeEntry(out, inputs, backward_fn))

    def backward(self, root: Tensor) -> None:
        """Propagate d(root)/d(x) into ``x.grad`` for every leaf x that
        requires grad; intermediate outputs get no ``.grad``."""
        if root.size != 1:
            raise ContractError(f"backward root must be scalar, got shape {root.shape}")
        on_tape = any(entry.out is root for entry in self._entries)
        if not on_tape:
            raise ContractError("backward root was not produced on this tape")

        # Upstream gradients keyed by tensor identity. Reverse iteration
        # guarantees all consumers of a tensor run before its producer,
        # so accumulation here is complete when the producer is visited.
        pending: dict[int, np.ndarray] = {
            id(root): np.ones(root.shape, dtype=np.float32)
        }
        for entry in reversed(self._entries):
            g_out = pending.pop(id(entry.out), None)
            if g_out is None:
                continue
            in_grads = entry.backward_fn(g_out)
            for inp, g_in in zip(entry.inputs, in_grads):
                if g_in is None or not inp.requires_grad:
                    continue
                g_in = np.asarray(g_in, dtype=np.float32)
                key = id(inp)
                if key in pending:
                    pending[key] += g_in
                else:
                    # copy: backward rules may hand out views or shared
                    # buffers, and stored grads are mutated in place
                    pending[key] = g_in.copy()
        # Whatever is left belongs to leaves (tensors no entry produces).
        for entry in self._entries:
            for inp in entry.inputs:
                g = pending.pop(id(inp), None)
                if g is not None and inp.requires_grad:
                    inp.accumulate_grad(g)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make_output(data: np.ndarray, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    tape = Tape.current()
    requires = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=requires)
    if requires:
        tape.record(out, inputs, backward_fn)
    return out


def _keep(mask: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``where(mask, g, +0.0)`` bit for bit; ``g`` must be float32."""
    return (g.view(np.int32) & -mask.astype(np.int32)).view(np.float32)


def _relu(a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``where(a > 0, a, +0.0)`` bit for bit, into ``out`` if given."""
    out = np.fmax(a, np.float32(0.0), out=out)
    out += np.float32(0.0)  # fmax may keep -0.0
    return out


# ---------------------------------------------------------------------------
# convolution and friends
# ---------------------------------------------------------------------------

_COL_BLOCK = 512  # the forward's column blocks; fixed (see the module notes)
_BWD_GROUP = 4096  # the backward's columns per image group; fixed (see the module notes)


def _pitched(wide: np.ndarray, n: int, ho: int, wo: int, wp: int) -> np.ndarray:
    """The (X, N, Ho, Wo) valid cells of an (X, N*span) matrix whose
    columns run at row pitch wp, span = (Ho-1)*wp + Wo: a view that skips
    the junk columns j >= Wo of each row."""
    span = (ho - 1) * wp + wo
    s = wide.itemsize
    return np.ndarray((wide.shape[0], n, ho, wo), wide.dtype, wide, 0, (wide.strides[0], span * s, wp * s, s))


def conv2d(
    x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1, padding: int = 0, relu: bool = False
) -> Tensor:
    """Cross-correlation of an NCHW batch with an FCkHkW kernel stack.

    Output spatial extents follow floor((H + 2*padding - kH)/stride) + 1.
    With ``relu=True`` the result is ``relu(conv2d(...))`` to the byte, as
    one tape entry that keeps no pre-activation array: bias and relu are
    applied in place on the fresh GEMM output, and the backward masks g
    with ``_keep(out > 0, g)`` before the conv backward. ``out > 0`` holds
    exactly where the pre-activation is > 0, and it is read from the
    returned array, which is why no op may write into its inputs.

    Lowered to GEMMs at the padded row pitch (see the module notes): the
    forward multiplies the (F, C*kh*kw) kernel matrix by the
    (C*kh*kw, N*span) column matrix, in 512-column blocks per image where
    span > 512, and copies out the valid columns.
    Backward lays g out at the same pitch and walks the batch in groups
    of max(1, _BWD_GROUP // span) images (one group for a one-channel
    input). Per group and kernel tap it adds one GEMM per image against
    the padded input read in place into dW, and that tap's kernel.T @ g
    over the group's columns into dx, which it skips (None) for an input
    that needs no grad. Every sum keeps the one-group order, so the
    bytes do not depend on the grouping.
    """
    x, kernel, bias = _as_tensor(x), _as_tensor(kernel), _as_tensor(bias)
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise DimensionError(
            f"conv2d expects 4-d input and kernel, got {x.data.ndim}-d and {kernel.data.ndim}-d"
        )
    n, c, h, w = x.shape
    f, ck, kh, kw = kernel.shape
    if ck != c:
        raise DimensionError(f"kernel expects {ck} input channels, input has {c}")
    if bias.data.shape != (f,):
        raise DimensionError(f"bias shape {bias.data.shape} does not match {f} filters")
    if stride < 1 or padding < 0:
        raise ContractError("stride must be >= 1 and padding >= 0")
    if kh > h + 2 * padding or kw > w + 2 * padding:
        raise DimensionError(
            f"kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}"
        )

    if padding:
        xp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=np.float32)
        xp[:, :, padding : padding + h, padding : padding + w] = x.data
    else:
        xp = np.ascontiguousarray(x.data)
    hp, wp = xp.shape[2:]
    ho = (hp - kh) // stride + 1
    wo = (wp - kw) // stride + 1
    span = (ho - 1) * wp + wo
    # column (c, p, q) of image n is xp[n, c] from flat cell p*wp + q on,
    # every stride-th of span cells: one run, never past xp's end
    s0, s1, s2, s3 = xp.strides
    taps = np.ndarray((c, kh, kw, n, span), xp.dtype, xp, 0, (s1, s2, s3, s0, s3 * stride))
    k2 = kernel.data.reshape(f, c * kh * kw)
    # wide[f, n*span + i*wp + j] = sum_{c,p,q} kernel[f,c,p,q] * xp[n, c, i*stride+p, j*stride+q]
    if span <= _COL_BLOCK:
        wide = np.dot(k2, taps.reshape(c * kh * kw, n * span))
    else:
        wide = np.empty((f, n, span), dtype=np.float32)
        for i in range(n):
            for j in range(0, span, _COL_BLOCK):
                block = taps[:, :, :, i, j : j + _COL_BLOCK]
                wide[:, i, j : j + _COL_BLOCK] = np.dot(k2, block.reshape(c * kh * kw, -1))
        wide = wide.reshape(f, n * span)
    out = np.ascontiguousarray(_pitched(wide, n, ho, wo, wp).transpose(1, 0, 2, 3))
    out += bias.data.reshape(1, f, 1, 1)
    if relu:
        _relu(out, out=out)

    def bwd(g: np.ndarray):
        if relu:
            g = _keep(out > 0, g)
        db = g.sum(axis=(0, 2, 3))
        # g in zeroed columns at pitch wp: junk columns add zero products
        # to dW and signed zeros to dx
        gp = np.zeros((f, n * span), dtype=np.float32)
        _pitched(gp, n, ho, wo, wp)[...] = g.transpose(1, 0, 2, 3)
        gn = gp.reshape(f, n, span)
        xf = xp.reshape(n, c, hp * wp)
        dw = np.empty((f, c, kh, kw), dtype=np.float32)
        dxp = np.zeros((c, n, hp * wp), dtype=np.float32) if x.requires_grad else None
        group = n if c == 1 else max(1, _BWD_GROUP // span)
        for a in range(0, n, group):
            b = min(n, a + group)
            ga = gp[:, a * span : b * span]
            for p in range(kh):
                for q in range(kw):
                    o = p * wp + q
                    run = slice(o, o + stride * (span - 1) + 1, stride)
                    tap = dw[:, :, p, q]
                    for i in range(a, b):
                        term = gn[:, i] @ xf[i, :, run].T
                        if i:
                            tap += term
                        else:
                            tap[...] = term
                    if dxp is not None:
                        dxp[:, a:b, run] += (kernel.data[:, :, p, q].T @ ga).reshape(c, b - a, span)
        if dxp is None:
            return None, dw, db
        dx = dxp.reshape(c, n, hp, wp).transpose(1, 0, 2, 3)
        if padding:
            dx = dx[:, :, padding : padding + h, padding : padding + w]
        return dx, dw, db

    return _make_output(out, (x, kernel, bias), bwd)


# the four cells of a 2x2 window, in the order ties are broken
_POOL_CORNERS = ((0, 0), (0, 1), (1, 0), (1, 1))


def max_pool2d(x: Tensor, window: int = 2, stride: int = 2) -> Tensor:
    """2x2 max pooling with stride 2.

    The output is the elementwise maximum of the four strided corner
    views ``x[:, :, i::2, j::2]``. Backward routes each gradient to the
    first maximal cell of its window in (0,0), (0,1), (1,0), (1,1) order,
    so a tie (common among relu zeros) sends it to one cell only.
    """
    x = _as_tensor(x)
    if window != 2 or stride != 2:
        raise ContractError("max_pool2d supports window=2, stride=2 only")
    if x.data.ndim != 4:
        raise DimensionError(f"max_pool2d expects a 4-d tensor, got {x.data.ndim}-d")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise DimensionError(f"max_pool2d needs even extents, got {h}x{w}")
    corners = [x.data[:, :, i::2, j::2] for i, j in _POOL_CORNERS]
    out = np.maximum(np.maximum(corners[0], corners[1]), np.maximum(corners[2], corners[3]))

    def bwd(g: np.ndarray):
        dx = np.empty_like(x.data)
        free = np.ones(out.shape, dtype=bool)  # windows whose gradient is unrouted
        for (i, j), corner in zip(_POOL_CORNERS, corners):
            hit = (corner == out) & free
            dx[:, :, i::2, j::2] = _keep(hit, g)
            free &= ~hit
        return (dx,)

    return _make_output(out, (x,), bwd)


def upsample2x(x: Tensor) -> Tensor:
    """Nearest-neighbor 2x upsampling; backward sums each 2x2 block."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise DimensionError(f"upsample2x expects a 4-d tensor, got {x.data.ndim}-d")
    n, c, h, w = x.shape
    out = x.data.repeat(2, axis=2).repeat(2, axis=3)

    def bwd(g: np.ndarray):
        v = g.reshape(n, c, h, 2, w, 2)
        if w == 1:  # here numpy's sum adds the four cells in another order
            return (v.sum(axis=(3, 5)),)
        # each 2x2 block summed in the order .sum(axis=(3, 5)) uses, minus its reduction loop
        top = v[:, :, :, 0, :, 0] + v[:, :, :, 0, :, 1]
        top += v[:, :, :, 1, :, 0] + v[:, :, :, 1, :, 1]
        return (top,)

    return _make_output(out, (x,), bwd)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate two NCHW tensors along the channel axis."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim != 4 or b.data.ndim != 4:
        raise DimensionError("concat_channels expects 4-d tensors")
    na, ca, ha, wa = a.shape
    nb, cb, hb, wb = b.shape
    if (na, ha, wa) != (nb, hb, wb):
        raise DimensionError(
            f"concat_channels spatial mismatch: {a.shape} vs {b.shape}"
        )
    out = np.concatenate([a.data, b.data], axis=1)

    def bwd(g: np.ndarray):
        return g[:, :ca], g[:, ca:]

    return _make_output(out, (a, b), bwd)


def dense(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Affine map (N, D) @ (D, M) + (M,)."""
    x, weight, bias = _as_tensor(x), _as_tensor(weight), _as_tensor(bias)
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise DimensionError("dense expects 2-d input and weight")
    n, d = x.shape
    dw, m = weight.shape
    if d != dw:
        raise DimensionError(f"dense inner dimensions disagree: {d} vs {dw}")
    if bias.data.shape != (m,):
        raise DimensionError(f"bias shape {bias.data.shape} does not match {m} outputs")
    out = x.data @ weight.data + bias.data

    def bwd(g: np.ndarray):
        return g @ weight.data.T, x.data.T @ g, g.sum(axis=0)

    return _make_output(out, (x, weight, bias), bwd)


def flatten(x: Tensor) -> Tensor:
    """Collapse all non-batch axes: (N, ...) -> (N, prod(...))."""
    x = _as_tensor(x)
    if x.data.ndim < 2:
        raise DimensionError("flatten expects at least 2-d input")
    shape = x.shape
    out = x.data.reshape(shape[0], -1)

    def bwd(g: np.ndarray):
        return (g.reshape(shape),)

    return _make_output(out, (x,), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise DimensionError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = a.data + b.data

    def bwd(g: np.ndarray):
        return g, g

    return _make_output(out, (a, b), bwd)


def scale(x: Tensor, k: float) -> Tensor:
    """Multiply by a python scalar."""
    x = _as_tensor(x)
    k = float(k)
    out = x.data * np.float32(k)

    def bwd(g: np.ndarray):
        return (g * np.float32(k),)

    return _make_output(out, (x,), bwd)


def select_rows(x: Tensor, idx) -> Tensor:
    """Gather rows of a 2-d tensor; backward scatter-adds into the source."""
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise DimensionError("select_rows expects a 2-d tensor")
    idx = np.asarray(idx, dtype=np.intp)
    out = x.data[idx]

    def bwd(g: np.ndarray):
        dx = np.zeros_like(x.data)
        np.add.at(dx, idx, g)
        return (dx,)

    return _make_output(out, (x,), bwd)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------

def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = _relu(x.data)

    def bwd(g: np.ndarray):
        return (_keep(out > 0, g),)

    return _make_output(out, (x,), bwd)


def _sigmoid_raw(z: np.ndarray) -> np.ndarray:
    # two-branch form avoids exp overflow on large negative inputs
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    # clip into the open interval: float32 saturates to exactly 0/1 around
    # |z| ~ 17, and downstream log-losses assume probabilities never touch
    # the endpoints
    s = np.clip(_sigmoid_raw(x.data), np.float32(1e-12), np.float32(1.0 - 1e-7))

    def bwd(g: np.ndarray):
        return (g * s * (1.0 - s),)

    return _make_output(s, (x,), bwd)


def softmax_rows(x: Tensor) -> Tensor:
    """Row-wise softmax of a rank-2 tensor."""
    x = _as_tensor(x)
    if x.data.ndim != 2:
        raise ContractError(f"softmax_rows expects a 2-d tensor, got {x.data.ndim}-d")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=1, keepdims=True)

    def bwd(g: np.ndarray):
        dot = (g * s).sum(axis=1, keepdims=True)
        return ((g - dot) * s,)

    return _make_output(s, (x,), bwd)



# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _batch_size(t: Tensor) -> int:
    return t.shape[0] if t.data.ndim >= 1 else 1


def _mse(pred: Tensor, target: Tensor) -> Tensor:
    n = _batch_size(pred)
    d = pred.data - target.data
    val = np.asarray((d * d).sum() / np.float32(n), dtype=np.float32)

    def bwd(g: np.ndarray):
        gs = np.float32(g) / np.float32(n)
        return 2.0 * d * gs, -2.0 * d * gs

    return _make_output(val, (pred, target), bwd)


def _bce(pred: Tensor, target: Tensor) -> Tensor:
    n = _batch_size(pred)
    p = np.clip(pred.data, _LOG_EPS, 1.0 - _LOG_EPS)
    inside = (pred.data > _LOG_EPS) & (pred.data < 1.0 - _LOG_EPS)
    t = target.data
    el = -(t * np.log(p) + (1.0 - t) * np.log1p(-p))
    val = np.asarray(el.sum() / np.float32(n), dtype=np.float32)

    def bwd(g: np.ndarray):
        gs = np.float32(g) / np.float32(n)
        dp = np.where(inside, (p - t) / (p * (1.0 - p)), np.float32(0.0)) * gs
        dt = (np.log1p(-p) - np.log(p)) * gs
        return dp.astype(np.float32), dt.astype(np.float32)

    return _make_output(val, (pred, target), bwd)


def _dice(pred: Tensor, target: Tensor) -> Tensor:
    p, t = pred.data, target.data
    inter = np.float32((p * t).sum())
    total = np.float32(p.sum() + t.sum())
    eps = np.float32(_DICE_EPS)
    val = np.asarray(1.0 - (2.0 * inter + eps) / (total + eps), dtype=np.float32)

    def bwd(g: np.ndarray):
        denom = (total + eps) ** 2
        dp = -(2.0 * t * (total + eps) - (2.0 * inter + eps)) / denom * np.float32(g)
        dt = -(2.0 * p * (total + eps) - (2.0 * inter + eps)) / denom * np.float32(g)
        return dp.astype(np.float32), dt.astype(np.float32)

    return _make_output(val, (pred, target), bwd)


def _smooth_l1(pred: Tensor, target: Tensor) -> Tensor:
    n = _batch_size(pred)
    d = pred.data - target.data
    small = np.abs(d) < 1.0
    el = np.where(small, 0.5 * d * d, np.abs(d) - 0.5)
    val = np.asarray(el.sum() / np.float32(n), dtype=np.float32)

    def bwd(g: np.ndarray):
        gs = np.float32(g) / np.float32(n)
        dp = np.where(small, d, np.sign(d)) * gs
        return dp.astype(np.float32), (-dp).astype(np.float32)

    return _make_output(val, (pred, target), bwd)


_LOSSES = {"mse": _mse, "bce": _bce, "dice": _dice, "smooth_l1": _smooth_l1}


def loss(pred: Tensor, target: Tensor, kind: str) -> Tensor:
    """Scalar training loss.

    mse / bce / smooth_l1 reduce as mean over batch, sum over the rest;
    dice is the global overlap loss 1 - (2*sum(p*t)+eps)/(sum(p)+sum(t)+eps).
    """
    pred, target = _as_tensor(pred), _as_tensor(target)
    if pred.shape != target.shape:
        raise DimensionError(f"loss shape mismatch: {pred.shape} vs {target.shape}")
    try:
        fn = _LOSSES[kind]
    except KeyError:
        raise ContractError(f"unknown loss kind {kind!r}") from None
    return fn(pred, target)


def softmax_cross_entropy(logits: Tensor, target: Tensor) -> Tensor:
    """Fused stable log-softmax cross-entropy, mean over the batch.

    ``target`` is a one-hot (or soft) distribution per row.
    """
    logits, target = _as_tensor(logits), _as_tensor(target)
    if logits.data.ndim != 2 or logits.shape != target.shape:
        raise DimensionError(
            f"softmax_cross_entropy expects matching 2-d shapes, got {logits.shape} vs {target.shape}"
        )
    n = logits.shape[0]
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    val = np.asarray(-(target.data * logp).sum() / np.float32(n), dtype=np.float32)
    soft = np.exp(logp)

    def bwd(g: np.ndarray):
        gs = np.float32(g) / np.float32(n)
        return (soft - target.data) * gs, -logp * gs

    return _make_output(val, (logits, target), bwd)
