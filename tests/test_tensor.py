"""Engine correctness: forward kernels against loop oracles, reverse-mode
gradients against central finite differences of those oracles."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from boneage import nn
from boneage import tensor as T
from boneage.age_estimation import age_forward, build_age_model
from boneage.config import PipelineConfig
from boneage.errors import ContractError, DimensionError
from boneage.roi import build_rpn, rpn_forward
from boneage.segmentation import UNetConfig, build_unet, unet_forward

from reference import (
    bce_ref,
    concat_channels_ref,
    conv2d_dw_ref,
    conv2d_padded_width_ref,
    conv2d_ref,
    conv2d_tap_dw_ref,
    conv2d_tap_dx_ref,
    conv2d_tensordot_grads_ref,
    conv2d_tensordot_ref,
    dense_ref,
    dice_ref,
    max_pool2d_argmax_ref,
    max_pool2d_ref,
    max_pool2d_where_grad_ref,
    mse_ref,
    numeric_grad,
    rel_err,
    relu_ref,
    relu_where_ref,
    sigmoid_ref,
    smooth_l1_ref,
    softmax_rows_ref,
    softmax_xent_ref,
    upsample2x_grad_sum_ref,
    upsample2x_ref,
)

SEEDS = list(range(20))


def gradcheck(engine_fn, ref_fn, arrays, tol=1e-3, eps=1e-3, forward_tol=1e-5):
    """FD-check every input of a scalar-valued computation.

    ``engine_fn`` builds the engine graph from Tensors, ``ref_fn``
    computes the same scalar from float64 arrays via the reference
    implementations. Returns the engine tensors for extra checks.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    tensors = [T.Tensor(a.astype(np.float32), requires_grad=True) for a in arrays]
    with T.Tape() as tape:
        out = engine_fn(*tensors)
        tape.backward(out)
    want = ref_fn(*arrays)
    assert abs(float(out.data) - want) <= forward_tol * max(1.0, abs(want))
    for i in range(len(arrays)):
        def partial(x, i=i):
            args = list(arrays)
            args[i] = x
            return ref_fn(*args)

        fd = numeric_grad(partial, arrays[i], eps=eps)
        got = tensors[i].grad
        assert got is not None, f"input {i} received no gradient"
        assert rel_err(got, fd) <= tol, f"input {i}: rel err {rel_err(got, fd)}"
    return tensors


def _mse_projection(op_engine, op_ref, target):
    """Wrap a tensor-valued op into a scalar via a fixed mse target."""
    tgt32 = T.Tensor(target.astype(np.float32))

    def engine_fn(*tensors):
        return T.loss(op_engine(*tensors), tgt32, "mse")

    def ref_fn(*arrays):
        return mse_ref(op_ref(*arrays), target)

    return engine_fn, ref_fn


# ---------------------------------------------------------------------------
# forward equivalence (criterion: within 1e-5 of the loop oracles)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_forward_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    n, c, f = rng.integers(1, 3), rng.integers(1, 4), rng.integers(1, 4)
    k = int(rng.integers(1, 4))
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    h = int(rng.integers(k, 8))
    w = int(rng.integers(k, 8))
    x = rng.standard_normal((n, c, h, w))
    kern = rng.standard_normal((f, c, k, k))
    b = rng.standard_normal(f)
    got = T.conv2d(T.Tensor(x), T.Tensor(kern), T.Tensor(b), stride=stride, padding=padding)
    want = conv2d_ref(x, kern, b, stride=stride, padding=padding)
    assert got.data.shape == want.shape
    np.testing.assert_allclose(got.data, want, rtol=0, atol=1e-5)


@pytest.mark.parametrize("seed", SEEDS)
def test_max_pool2d_forward_matches_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n, c = rng.integers(1, 3), rng.integers(1, 4)
    h, w = 2 * int(rng.integers(1, 5)), 2 * int(rng.integers(1, 5))
    x = rng.standard_normal((n, c, h, w))
    got = T.max_pool2d(T.Tensor(x))
    np.testing.assert_allclose(got.data, max_pool2d_ref(x), rtol=0, atol=1e-5)


@pytest.mark.parametrize("seed", SEEDS)
def test_dense_forward_matches_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    n, d, m = rng.integers(1, 8), rng.integers(1, 8), rng.integers(1, 8)
    x = rng.standard_normal((n, d))
    w = rng.standard_normal((d, m))
    b = rng.standard_normal(m)
    got = T.dense(T.Tensor(x), T.Tensor(w), T.Tensor(b))
    np.testing.assert_allclose(got.data, dense_ref(x, w, b), rtol=0, atol=1e-5)


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_upsample_and_concat_forward(seed):
    rng = np.random.default_rng(300 + seed)
    x = rng.standard_normal((2, 3, 4, 5))
    y = rng.standard_normal((2, 2, 8, 10))
    up = T.upsample2x(T.Tensor(x))
    np.testing.assert_allclose(up.data, upsample2x_ref(x), atol=1e-6)
    cat = T.concat_channels(up, T.Tensor(y))
    np.testing.assert_allclose(cat.data, concat_channels_ref(upsample2x_ref(x), y), atol=1e-6)


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_activation_forward(seed):
    rng = np.random.default_rng(400 + seed)
    x = rng.standard_normal((4, 7))
    np.testing.assert_allclose(T.relu(T.Tensor(x)).data, relu_ref(x), atol=1e-6)
    np.testing.assert_allclose(T.sigmoid(T.Tensor(x)).data, sigmoid_ref(x), atol=1e-6)
    np.testing.assert_allclose(T.softmax_rows(T.Tensor(x)).data, softmax_rows_ref(x), atol=1e-6)


# ---------------------------------------------------------------------------
# byte-exact kernels: conv2d's GEMM lowering and max_pool2d's tie rule
# ---------------------------------------------------------------------------

# (N, C, H, W, F, k, stride, padding): 1x1 convs at N=1 and C=1, the
# first layer of every net (C=1), the U-Net head at N=1 and 4 and its
# largest layer
CONV_SHAPES = [
    (1, 1, 5, 7, 1, 1, 1, 0),
    (1, 1, 6, 4, 3, 1, 1, 0),
    (1, 3, 4, 4, 1, 1, 1, 0),
    (4, 1, 64, 96, 8, 3, 1, 1),
    (1, 8, 64, 96, 1, 1, 1, 0),
    (4, 8, 64, 96, 1, 1, 1, 0),
    (4, 24, 64, 96, 8, 3, 1, 1),
    (2, 5, 9, 11, 4, 3, 2, 1),
]


def _random_conv_shape(seed):
    rng = np.random.default_rng(500 + seed)
    k = int(rng.choice([1, 2, 3]))
    return (
        int(rng.integers(1, 5)), int(rng.integers(1, 9)),
        int(rng.integers(k, 20)), int(rng.integers(k, 20)),
        int(rng.integers(1, 9)), k, int(rng.integers(1, 3)), int(rng.integers(0, 2)),
    )


ALL_CONV_SHAPES = CONV_SHAPES + [_random_conv_shape(s) for s in SEEDS]


def _conv_case(shape):
    """Seeded (x, kernel, bias, upstream g) for one conv shape, and the
    package's (out, (dx, dw, db))."""
    n, c, h, w, f, k, stride, padding = shape
    rng = np.random.default_rng(sum(shape))
    x = np.maximum(rng.standard_normal((n, c, h, w)), 0.0).astype(np.float32)
    kern = rng.standard_normal((f, c, k, k)).astype(np.float32)
    b = rng.standard_normal(f).astype(np.float32)
    xt = T.Tensor(x, requires_grad=True)
    with T.Tape() as tape:
        out = T.conv2d(xt, T.Tensor(kern), T.Tensor(b), stride=stride, padding=padding)
    g = rng.standard_normal(out.shape).astype(np.float32)
    return x, kern, b, g, out.data, tape._entries[-1].backward_fn(g)


# stride-2 shapes whose output columns land in other OpenBLAS edge tiles
# at the padded-width pitch, so 7 of 240 and 17 of 960 forward cells round
# differently from the tensordot GEMM (max abs 6e-7 and 1.9e-6); their
# dx and db, and every stride-1 shape's forward, keep the tensordot bytes
_PITCH_ROUNDED_SHAPES = {(2, 5, 9, 11, 4, 3, 2, 1), (2, 5, 19, 16, 6, 3, 2, 1)}


def _dx_db_oracles(x, kern, g, stride, padding):
    """dx's and db's byte-exact oracles: the tensordot grads, whose bytes
    every C > 1 input keeps, and the per-tap GEMMs for a single-channel
    input's dx, where numpy computes each tap's one-row product
    differently from the one column-gradient GEMM."""
    want_dx, _, want_db = conv2d_tensordot_grads_ref(x, kern, g, stride, padding)
    if x.shape[1] == 1:
        want_dx = conv2d_tap_dx_ref(x, kern, g, stride, padding)
    return want_dx, want_db


def _assert_conv_matches_oracles(shape):
    """The forward against the one-GEMM padded-width oracle, dx and db
    against ``_dx_db_oracles`` and dW against the chunked GEMMs, all byte
    for byte; returns the case's x, kernel, bias and forward."""
    stride, padding = shape[6:]
    x, kern, b, g, out, (dx, dw, db) = _conv_case(shape)
    want = conv2d_padded_width_ref(x, kern, b, stride=stride, padding=padding)
    assert out.shape == want.shape and out.tobytes() == want.tobytes()
    want_dx, want_db = _dx_db_oracles(x, kern, g, stride, padding)
    want_dw = conv2d_tap_dw_ref(x, kern, g, stride, padding)
    for got_g, want_g in ((dx, want_dx), (dw, want_dw), (db, want_db)):
        assert got_g.shape == want_g.shape and got_g.tobytes() == want_g.tobytes()
    return x, kern, b, out


@pytest.mark.parametrize("shape", ALL_CONV_SHAPES)
def test_conv2d_is_byte_identical_to_tensordot(shape):
    stride, padding = shape[6:]
    x, kern, b, out = _assert_conv_matches_oracles(shape)
    tensordot = conv2d_tensordot_ref(x, kern, b, stride=stride, padding=padding)
    if shape in _PITCH_ROUNDED_SHAPES:
        np.testing.assert_allclose(out, tensordot, rtol=0, atol=1e-5)
    else:
        assert out.tobytes() == tensordot.tobytes()


# off-pipeline shapes whose span (output columns per image at the padded
# pitch) runs over two whole 512-column forward blocks and ends in a
# partial one, at stride 1 and 2, padding 0 and 1, for one image and
# three. On OpenBLAS the block edges decide how a partial block's last
# columns round, and a span's remainder can round differently from the
# one GEMM (on 139 of 840 off-pipeline shapes swept; on none of the
# pipeline's): these extents keep the bytes with 1 and 2 threads, while
# 500-column blocks change them on every shape, and blocks that run on
# across images on both three-image shapes at padding 0.
_BLOCKED_CONV_SHAPES = [
    (n, 4, (hw[0] - 1) * stride + 1, (hw[1] - 1) * stride + 1, 8, 3, stride, padding)
    for stride in (1, 2) for padding, hw in ((0, (41, 43)), (1, (37, 45))) for n in (1, 3)
]


@pytest.mark.parametrize("shape", _BLOCKED_CONV_SHAPES)
def test_conv2d_column_blocks_are_byte_identical_to_one_gemm(shape):
    _, _, h, w, _, k, stride, padding = shape
    wp = w + 2 * padding
    span = (h + 2 * padding - k) // stride * wp + (wp - k) // stride + 1
    assert span > 2 * 512 and span % 512
    _assert_conv_matches_oracles(shape)


# the 1x1 and single-channel shapes above, and the nets' first layers and
# U-Net head at N = 1, 2, 3, 4, 8 and 16. dW once took tensordot's bytes
# on these shapes, which named the test; the chunked sum over images now
# sets them.
_IDENTITY_ORDER_SHAPES = [s for s in ALL_CONV_SHAPES if s[5] == 1 or s[1] == 1] + [
    (n,) + layer for n in (1, 2, 3, 4, 8, 16)
    for layer in ((1, 64, 96, 8, 3, 1, 1), (1, 128, 96, 8, 3, 1, 1), (1, 64, 64, 8, 3, 1, 1), (8, 64, 96, 1, 1, 1, 0))
]


@pytest.mark.parametrize("shape", _IDENTITY_ORDER_SHAPES)
def test_conv2d_dw_is_byte_identical_to_tensordot_where_column_order_is_kept(shape):
    x, kern, _, g, _, (_, dw, _) = _conv_case(shape)
    want_dw = conv2d_tap_dw_ref(x, kern, g, *shape[6:])
    assert dw.shape == want_dw.shape and dw.tobytes() == want_dw.tobytes()


# dW reads each tap's cells every stride-th one, the only stride-dependent
# step of its GEMMs; no pipeline conv has stride 2, so these shapes hold
# it to float64 loops, which share no code with the package or the
# chunked oracle
_STRIDE2_SHAPES = [
    (1, 3, 9, 11, 4, 3, 2, 1),
    (3, 2, 10, 7, 5, 3, 2, 0),
    (2, 4, 8, 9, 3, 2, 2, 1),
    (3, 5, 7, 8, 2, 1, 2, 0),
]


@pytest.mark.parametrize("shape", _STRIDE2_SHAPES)
def test_conv2d_stride2_dw_matches_the_float64_reference(shape):
    x, kern, _, g, _, (_, dw, _) = _conv_case(shape)
    k, stride, padding = shape[5:]
    want = conv2d_dw_ref(x, g, k, k, stride, padding)
    np.testing.assert_allclose(dw, want, rtol=1e-5, atol=1e-5)


def test_conv2d_windows_non_contiguous_and_read_only_inputs():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((2, 6, 7, 3)).astype(np.float32).transpose(0, 3, 1, 2)
    read_only = np.ascontiguousarray(x)
    read_only.flags.writeable = False
    kern = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    want = conv2d_tensordot_ref(read_only, kern, b)
    for data in (x, read_only):
        got = T.conv2d(T.Tensor(data), T.Tensor(kern), T.Tensor(b))
        assert got.data.tobytes() == want.tobytes()


@pytest.mark.parametrize("k, stride", [(1, 1), (2, 1), (3, 1), (3, 2), (2, 2)])
def test_conv2d_reads_nothing_past_an_unpadded_input(k, stride):
    # the input is the head of a buffer whose tail is NaN: a window or
    # column read past the input's last cell would put NaN in the output
    rng = np.random.default_rng(40 + k + stride)
    n, c, h, w = 3, 2, 7, 9
    buf = np.full(n * c * h * w + 64, np.nan, dtype=np.float32)
    x = buf[: n * c * h * w].reshape(n, c, h, w)
    x[...] = rng.standard_normal(x.shape)
    kern = rng.standard_normal((4, c, k, k)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    got = T.conv2d(T.Tensor(x), T.Tensor(kern), T.Tensor(b), stride=stride).data
    assert not np.isnan(got).any()
    assert got.tobytes() == conv2d_padded_width_ref(x.copy(), kern, b, stride=stride).tobytes()


def test_conv2d_dx_is_positive_zero_where_its_sums_are_zero():
    # taps of halves and small integers that sum to exactly 0, so under a
    # constant g every interior dx cell cancels; under an all -0.0 g every
    # product is a signed zero. Either way dx's zeros are +0.0
    kern = np.array([[1, -1, 2], [-2, 0.5, -0.5], [3, -3, 0]], dtype=np.float32)
    kern = np.stack([kern, -kern])[None]  # (F=1, C=2, 3, 3)
    x = np.ones((2, 2, 6, 5), dtype=np.float32)
    for g in (np.full((2, 1, 6, 5), 0.75, dtype=np.float32), np.full((2, 1, 6, 5), -0.0, dtype=np.float32)):
        xt = T.Tensor(x, requires_grad=True)
        with T.Tape() as tape:
            T.conv2d(xt, T.Tensor(kern), T.Tensor(np.zeros(1, dtype=np.float32)), padding=1)
        dx = np.asarray(tape._entries[-1].backward_fn(g)[0])
        want, _, _ = conv2d_tensordot_grads_ref(x, kern, g, 1, 1)
        assert dx.tobytes() == want.tobytes()
        zero = dx == 0
        assert zero[:, :, 1:-1, 1:-1].all() and not np.signbit(dx[zero]).any()


def _pool_with_grad(x, g):
    """Forward output and the pool's own backward rule applied to ``g``."""
    xt = T.Tensor(x, requires_grad=True)
    with T.Tape() as tape:
        out = T.max_pool2d(xt)
    (dx,) = tape._entries[-1].backward_fn(g)
    return out.data, np.asarray(dx)


def _assert_pool_matches_argmax(x, g):
    out, dx = _pool_with_grad(x, g)
    want_out, want_dx = max_pool2d_argmax_ref(x, g)
    assert out.tobytes() == want_out.tobytes()
    assert dx.shape == want_dx.shape and dx.tobytes() == want_dx.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_max_pool2d_is_byte_identical_to_argmax_with_ties(seed):
    rng = np.random.default_rng(600 + seed)
    n, c = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    h, w = 2 * int(rng.integers(1, 9)), 2 * int(rng.integers(1, 9))
    # a few integer levels, relu'd: most windows hold 2-4 equal values,
    # many of them zeros
    x = np.maximum(rng.integers(-3, 3, size=(n, c, h, w)), 0).astype(np.float32)
    if seed % 2:
        x += rng.standard_normal(x.shape).astype(np.float32) * (x > 1)
    g = rng.standard_normal((n, c, h // 2, w // 2)).astype(np.float32)
    _assert_pool_matches_argmax(x, g)


def test_max_pool2d_routes_ties_to_the_first_maximal_cell():
    # one 2x2 window per pattern; each row lists (0,0), (0,1), (1,0), (1,1)
    patterns = [
        [0, 0, 0, 0], [1, 1, 1, 1], [0, 2, 2, 0], [0, 0, 2, 2], [0, 1, 0, 1],
        [3, 1, 3, 3], [1, 3, 3, 3], [0, 0, 0, 1], [-1, -1, -2, -1], [2, 0, 0, 2],
    ]
    x = np.array(patterns, dtype=np.float32).reshape(1, len(patterns), 2, 2)
    g = np.arange(1, len(patterns) + 1, dtype=np.float32).reshape(1, len(patterns), 1, 1)
    _assert_pool_matches_argmax(x, g)


def _unet_upsample_shapes(cfg):
    """(C, H, W) of every upsample2x input in a U-Net of this geometry."""
    return [
        (cfg.level_channels(level + 1), cfg.height >> (level + 1), cfg.width >> (level + 1))
        for level in reversed(range(cfg.depth))
    ]


# the default U-Net and the tests' tiny one, at N = 1-16, plus one-column
# inputs, where the backward keeps numpy's own sum
_UNETS = (UNetConfig(), UNetConfig(depth=2, base_channels=4, input_size=(32, 32)))
UPSAMPLE_SHAPES = sorted(
    {(n,) + chw for cfg in _UNETS for chw in _unet_upsample_shapes(cfg) for n in range(1, 17)}
    | {(1, 1, 1, 1), (2, 3, 5, 1), (4, 2, 1, 1), (16, 8, 7, 1)}
)


@pytest.mark.parametrize("shape", UPSAMPLE_SHAPES)
def test_upsample2x_backward_is_byte_identical_to_block_sum(shape):
    n, c, h, w = shape
    rng = np.random.default_rng(sum(shape) + 31 * n)
    g = rng.standard_normal((n, c, 2 * h, 2 * w)).astype(np.float32)
    with T.Tape() as tape:
        T.upsample2x(T.Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True))
    (dx,) = tape._entries[-1].backward_fn(g)
    want = upsample2x_grad_sum_ref(g)
    assert dx.shape == want.shape and dx.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 16])
@pytest.mark.parametrize("coarse_shape", _unet_upsample_shapes(UNetConfig()))
def test_conv2d_with_skip_is_byte_identical_to_conv2d_of_concat_of_upsample(coarse_shape, n):
    # each default decoder level's merged conv against the three ops it
    # replaces: the output and the grads of coarse, kernel, bias and skip
    c, h, w = coarse_shape
    rng = np.random.default_rng(970 + 17 * n + c)
    coarse = np.maximum(rng.standard_normal((n, c, h, w)), 0.0).astype(np.float32)
    coarse[:, :, : h // 2, : w // 2] = 0.0
    skip = np.maximum(rng.standard_normal((n, c // 2, 2 * h, 2 * w)), 0.0).astype(np.float32)
    kern = rng.standard_normal((c // 2, c + c // 2, 3, 3)).astype(np.float32)
    b = rng.standard_normal(c // 2).astype(np.float32)
    b[0] = 0.0  # so some pre-activations are exactly zero
    g = rng.standard_normal((n, c // 2, 2 * h, 2 * w)).astype(np.float32)
    g[rng.random(g.shape) < 0.2] = -0.0

    def run(merged):
        leaves = [T.Tensor(a, requires_grad=True) for a in (coarse, kern, b, skip)]
        ct, kt, bt, st = leaves
        with T.Tape() as tape:
            if merged:
                out = T.conv2d(ct, kt, bt, padding=1, relu=True, skip=st)
            else:
                out = T.conv2d(T.concat_channels(T.upsample2x(ct), st), kt, bt, padding=1, relu=True)
        assert len(tape) == (1 if merged else 3)
        grads = _reverse_sweep(tape, out, g)
        return out.data, [grads[id(t)] for t in leaves]

    got_out, got = run(True)
    want_out, want = run(False)
    assert got_out.tobytes() == want_out.tobytes()
    for name, got_g, want_g in zip(("coarse", "kernel", "bias", "skip"), got, want):
        assert got_g.shape == want_g.shape and got_g.tobytes() == want_g.tobytes(), name


def test_conv2d_rejects_a_skip_input_that_does_not_match_the_upsampled_input():
    x, kern, b = np.zeros((2, 4, 3, 5)), np.zeros((2, 6, 3, 3)), np.zeros(2)
    T.conv2d(x, kern, b, padding=1, skip=np.zeros((2, 2, 6, 10)))
    for shape in [(2, 2, 6, 9), (1, 2, 6, 10), (2, 2, 6)]:
        with pytest.raises(DimensionError):
            T.conv2d(x, kern, b, padding=1, skip=np.zeros(shape))
    with pytest.raises(DimensionError):  # 4 + 3 channels for a 6-channel kernel
        T.conv2d(x, kern, b, padding=1, skip=np.zeros((2, 3, 6, 10)))


# ---------------------------------------------------------------------------
# branch-free relu and the fused conv + bias + relu, against np.where
# ---------------------------------------------------------------------------

def _f32_bits(*words):
    return np.array(words, dtype=np.uint32).view(np.float32)


# +-0, quiet NaNs of either sign and another payload, +-inf, subnormals,
# the smallest normal and the largest finite value, each with both signs
_SPECIALS = np.concatenate([
    np.array([0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45, 1e-39, -1e-39], dtype=np.float32),
    np.array([np.finfo(np.float32).tiny, -np.finfo(np.float32).tiny], dtype=np.float32),
    np.array([np.finfo(np.float32).max, -np.finfo(np.float32).max], dtype=np.float32),
    _f32_bits(0x7FC00000, 0xFFC00000, 0x7FC00001, 0xFFC0BEEF),
])


def _with_specials(rng, shape):
    """Standard normals with every special float32 value planted at random cells."""
    a = rng.standard_normal(shape).astype(np.float32)
    flat = a.reshape(-1)
    cells = rng.choice(flat.size, size=min(flat.size, 3 * _SPECIALS.size), replace=False)
    flat[cells] = np.resize(_SPECIALS, cells.size)
    return a


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_relu_is_byte_identical_to_where(seed):
    rng = np.random.default_rng(700 + seed)
    shape = (int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(4, 13)), int(rng.integers(4, 13)))
    x = _with_specials(rng, shape)
    g = _with_specials(rng, shape)
    g[(x > 0) & (rng.random(shape) < 0.2)] = -0.0  # where the mask keeps g
    with T.Tape() as tape:
        out = T.relu(T.Tensor(x, requires_grad=True))
    (dx,) = tape._entries[-1].backward_fn(g)
    want_out, want_dx = relu_where_ref(x, g)
    assert out.data.tobytes() == want_out.tobytes()
    assert dx.shape == want_dx.shape and dx.tobytes() == want_dx.tobytes()


@pytest.mark.parametrize("seed", SEEDS[:10])
def test_max_pool2d_backward_is_byte_identical_to_where_select(seed):
    rng = np.random.default_rng(800 + seed)
    n, c = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    h, w = 2 * int(rng.integers(2, 9)), 2 * int(rng.integers(2, 9))
    x = _with_specials(rng, (n, c, h, w))
    x[rng.random(x.shape) < 0.3] = 0.0  # ties among relu zeros
    g = _with_specials(rng, (n, c, h // 2, w // 2))
    g[rng.random(g.shape) < 0.2] = -0.0
    _, dx = _pool_with_grad(x, g)
    want = max_pool2d_where_grad_ref(x, g)
    assert dx.shape == want.shape and dx.tobytes() == want.tobytes()


# keyed by the PipelineConfig field that holds each net's default geometry
_NETS = {
    "unet": (build_unet, unet_forward),
    "rpn": (build_rpn, rpn_forward),
    "age": (build_age_model, age_forward),
}


def _conv_layers(monkeypatch, net):
    """(x shape without N, kernel shape, padding, relu, up) of every conv
    the net's default geometry runs, recorded from one forward pass. A
    conv given a skip input records its merged input's shape, and as
    ``up`` how many of those channels are the upsampled x; elsewhere
    ``up`` is 0."""
    build, forward = _NETS[net]
    model = build(getattr(PipelineConfig(), net))
    layers = []
    conv2d = T.conv2d

    def spy(x, kernel, bias, stride=1, padding=0, relu=False, skip=None):
        assert stride == 1
        if skip is None:
            layers.append((x.shape[1:], kernel.shape, padding, relu, 0))
        else:
            layers.append(((x.shape[1] + skip.shape[1],) + skip.shape[2:], kernel.shape, padding, relu, x.shape[1]))
        return conv2d(x, kernel, bias, stride=stride, padding=padding, relu=relu, skip=skip)

    # in every module that binds it, so a call by an imported name is seen too
    for mod in [m for name, m in sys.modules.items() if name.split(".")[0] == "boneage"]:
        if getattr(mod, "conv2d", None) is conv2d:
            monkeypatch.setattr(mod, "conv2d", spy)
    forward(model, T.Tensor(np.zeros((1, 1, model.config.height, model.config.width), dtype=np.float32)))
    monkeypatch.undo()
    return layers


def _conv_grads(x, kern, b, g, padding, fused):
    """Forward output and (dx, dw, db) of conv+relu as one op or as two."""
    xt = T.Tensor(x, requires_grad=True)
    kt, bt = T.Tensor(kern, requires_grad=True), T.Tensor(b, requires_grad=True)
    with T.Tape() as tape:
        if fused:
            out = T.conv2d(xt, kt, bt, padding=padding, relu=True)
        else:
            out = T.relu(T.conv2d(xt, kt, bt, padding=padding))
    assert len(tape) == (1 if fused else 2)
    for entry in reversed(tape._entries):
        grads = entry.backward_fn(g)
        g = np.asarray(grads[0], dtype=np.float32).copy()  # as Tape.backward hands it on
    return out.data, grads


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("net", sorted(_NETS))
def test_conv2d_relu_is_byte_identical_to_relu_of_conv2d(monkeypatch, net, n):
    layers = [layer[:3] for layer in _conv_layers(monkeypatch, net) if layer[3]]
    assert len(layers) >= 6
    rng = np.random.default_rng(900 + n)
    for (c, h, w), kshape, padding in layers:
        x = np.maximum(rng.standard_normal((n, c, h, w)), 0.0).astype(np.float32)
        x[:, :, : h // 2, : w // 2] = 0.0  # there the pre-activation is the bias
        kern = rng.standard_normal(kshape).astype(np.float32)
        b = rng.standard_normal(kshape[0]).astype(np.float32)
        b[0] = 0.0  # so some pre-activations are exactly zero
        g = rng.standard_normal((n, kshape[0], h, w)).astype(np.float32)
        g[rng.random(g.shape) < 0.2] = -0.0
        got_out, got = _conv_grads(x, kern, b, g, padding, fused=True)
        want_out, want = _conv_grads(x, kern, b, g, padding, fused=False)
        assert got_out.tobytes() == want_out.tobytes(), (c, h, w, kshape)
        for got_g, want_g in zip(got, want):
            assert got_g.shape == want_g.shape and got_g.tobytes() == want_g.tobytes(), (c, h, w, kshape)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 16])
@pytest.mark.parametrize("net", sorted(_NETS))
def test_pipeline_convs_are_byte_identical_to_the_oracles(monkeypatch, net, n):
    # every conv of the net, fused relu included, on relu'd inputs with a
    # zero quadrant; g holds -0.0 cells, and the relu mask adds +0.0 ones.
    # A merged decoder conv is checked on its explicit
    # concat(upsample(coarse), skip) input.
    rng = np.random.default_rng(950 + n)
    layers = _conv_layers(monkeypatch, net)
    if net == "unet":  # every conv of every level, the merged ones included
        depth = PipelineConfig().unet.depth
        assert len(layers) == 4 * depth + 3 and sum(layer[4] > 0 for layer in layers) == depth
    for (c, h, w), kshape, padding, relu, up in layers:
        x = np.maximum(rng.standard_normal((n, c, h, w)), 0.0).astype(np.float32)
        x[:, :, : h // 2, : w // 2] = 0.0
        kern = rng.standard_normal(kshape).astype(np.float32)
        b = rng.standard_normal(kshape[0]).astype(np.float32)
        g = rng.standard_normal((n, kshape[0], h + 2 * padding - kshape[2] + 1, w + 2 * padding - kshape[3] + 1))
        g = g.astype(np.float32)
        g[rng.random(g.shape) < 0.2] = -0.0
        if up:
            coarse = x[:, :up, ::2, ::2].copy()
            x[:, :up] = coarse.repeat(2, axis=2).repeat(2, axis=3)
            xt, skip = T.Tensor(coarse, requires_grad=True), T.Tensor(x[:, up:], requires_grad=True)
        else:
            xt, skip = T.Tensor(x, requires_grad=True), None
        with T.Tape() as tape:
            out = T.conv2d(xt, T.Tensor(kern), T.Tensor(b), padding=padding, relu=relu, skip=skip)
        got = tape._entries[-1].backward_fn(g)
        want_out = conv2d_tensordot_ref(x, kern, b, padding=padding)
        if relu:
            want_out, g = relu_where_ref(want_out, g)
        want_dx, want_db = _dx_db_oracles(x, kern, g, 1, padding)
        want = (want_dx, conv2d_tap_dw_ref(x, kern, g, 1, padding), want_db)
        if up:
            want = (upsample2x_grad_sum_ref(want_dx[:, :up]),) + want[1:] + (want_dx[:, up:],)
        layer = (c, h, w, kshape, padding, relu, up)
        assert out.data.tobytes() == want_out.tobytes(), layer
        assert len(got) == len(want), layer
        for got_g, want_g in zip(got, want):
            assert got_g.shape == want_g.shape and got_g.tobytes() == want_g.tobytes(), layer


@pytest.mark.parametrize("group", [1, 2, 3, 5])
def test_conv2d_backward_image_groups_keep_the_one_group_bytes(monkeypatch, group):
    # seven images in groups of `group`, the last one short where 7 % group
    n, c, h, w, f = 7, 3, 10, 9, 4
    span = (h - 1) * (w + 2) + w  # 3x3 kernel, padding 1
    rng = np.random.default_rng(960 + group)
    x = np.maximum(rng.standard_normal((n, c, h, w)), 0.0).astype(np.float32)
    kern = rng.standard_normal((f, c, 3, 3)).astype(np.float32)
    b = rng.standard_normal(f).astype(np.float32)
    g = rng.standard_normal((n, f, h, w)).astype(np.float32)
    g[rng.random(g.shape) < 0.2] = -0.0

    def grads(budget):
        monkeypatch.setattr(T, "_BWD_GROUP", budget)
        with T.Tape() as tape:
            T.conv2d(T.Tensor(x, requires_grad=True), T.Tensor(kern), T.Tensor(b), padding=1, relu=True)
        return tape._entries[-1].backward_fn(g)

    for got, want in zip(grads(group * span + span - 1), grads(n * span)):
        assert got.tobytes() == want.tobytes()


# traced allocation peak of one default U-Net forward at N = 1. With the
# forward's columns in 512-column blocks it reads 2.2 MB (numpy 2.4);
# building dec0.conv1's whole 216 x 6,270 column matrix (5.4 MB) at once
# read 7.2 MB. The bound leaves 1.8 MB of margin above the blocked peak
# and fails the whole-matrix forward by 3.2 MB.
_UNET_FORWARD_PEAK_BOUND_MB = 4.0


def test_unet_forward_traced_peak_stays_under_bound():
    model = build_unet()
    cfg = model.config
    x = T.Tensor(np.random.default_rng(3).random((1, 1, cfg.height, cfg.width), dtype=np.float32))
    unet_forward(model, x)  # first-call allocations out of the way
    tracemalloc.start()
    try:
        unet_forward(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < _UNET_FORWARD_PEAK_BOUND_MB


# traced allocation peak of one default U-Net training step (forward, MSE,
# backward) at N = 4. With each decoder conv building its merged input in
# its own padded buffer and the tape handing gradients on uncopied it
# reads 20.9 MB (numpy 2.4); with upsample2x and concat_channels as ops
# of their own and a copy of every gradient the tape received it read
# 27.7 MB, and with the whole (C*kh*kw, N*span) column gradient built
# first 48.0 MB. The bound leaves 4.1 MB of margin and fails the separate
# ops by 2.7 MB.
_UNET_STEP_PEAK_BOUND_MB = 25.0


def test_unet_training_step_traced_peak_stays_under_bound():
    model = build_unet()
    cfg = model.config
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.random((4, 1, cfg.height, cfg.width), dtype=np.float32))
    target = T.Tensor(rng.random((4, 1, cfg.height, cfg.width), dtype=np.float32))

    def step():
        with T.Tape() as tape:
            tape.backward(T.loss(unet_forward(model, x), target, "mse"))

    step()  # first-call allocations and the parameters' grads out of the way
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < _UNET_STEP_PEAK_BOUND_MB


def test_conv_block_records_one_tape_entry_per_conv():
    params = {}
    nn.init_conv_block(params, np.random.default_rng(0), "b", 1, 4)
    with T.Tape() as tape:
        nn.conv_block(T.Tensor(np.ones((1, 1, 6, 6), dtype=np.float32)), params, "b")
    assert len(tape) == 2


def test_conv2d_input_without_grad_gets_none_and_the_same_parameter_grads():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 2, 9, 7)).astype(np.float32)
    kern = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    target = T.Tensor(rng.standard_normal((3, 4, 9, 7)).astype(np.float32))

    def run(x_requires_grad):
        xt = T.Tensor(x, requires_grad=x_requires_grad)
        kt, bt = T.Tensor(kern, requires_grad=True), T.Tensor(b, requires_grad=True)
        with T.Tape() as tape:
            tape.backward(T.loss(T.conv2d(xt, kt, bt, padding=1), target, "mse"))
        return xt, kt, bt

    x0, k0, b0 = run(False)
    x1, k1, b1 = run(True)
    assert x0.grad is None and x1.grad is not None
    assert k0.grad.tobytes() == k1.grad.tobytes()
    assert b0.grad.tobytes() == b1.grad.tobytes()


def test_loss_rejects_unknown_kind_and_shape_mismatch():
    a = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        T.loss(a, a, "hinge")
    with pytest.raises(DimensionError):
        T.loss(a, T.Tensor(np.zeros((3, 2))), "mse")


@pytest.mark.parametrize("kind,ref", [("mse", mse_ref), ("bce", bce_ref),
                                      ("dice", dice_ref), ("smooth_l1", smooth_l1_ref)])
def test_loss_forward_matches_oracle(kind, ref):
    rng = np.random.default_rng(hash(kind) % 2**31)
    for _ in range(10):
        shape = (int(rng.integers(1, 5)), int(rng.integers(1, 6)))
        if kind in ("bce", "dice"):
            p = rng.uniform(0.05, 0.95, shape)
            t = rng.uniform(0.0, 1.0, shape)
        else:
            p = rng.standard_normal(shape)
            t = rng.standard_normal(shape)
        got = float(T.loss(T.Tensor(p), T.Tensor(t), kind).data)
        want = ref(p.astype(np.float32), t.astype(np.float32))
        assert abs(got - want) <= 1e-5 * max(1.0, abs(want))


def test_softmax_cross_entropy_forward():
    rng = np.random.default_rng(17)
    logits = rng.standard_normal((5, 9))
    target = np.eye(9)[rng.integers(0, 9, 5)]
    got = float(T.softmax_cross_entropy(T.Tensor(logits), T.Tensor(target)).data)
    assert abs(got - softmax_xent_ref(logits, target)) < 1e-5


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_rows_sum_to_one_and_sigmoid_is_open_interval(seed):
    rng = np.random.default_rng(500 + seed)
    x = rng.standard_normal((6, 8)) * 10
    s = T.softmax_rows(T.Tensor(x)).data
    np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-6)
    sig = T.sigmoid(T.Tensor(x)).data
    assert np.all(sig > 0) and np.all(sig < 1)


def test_pool_rejects_odd_extents_and_nonstandard_window():
    with pytest.raises(DimensionError):
        T.max_pool2d(T.Tensor(np.zeros((1, 1, 5, 4))))
    with pytest.raises(TypeError):
        T.max_pool2d(T.Tensor(np.zeros((1, 1, 4, 4))), window=3, stride=3)


def test_backward_requires_scalar_root_recorded_on_tape():
    x = T.Tensor(np.ones((2, 2)), requires_grad=True)
    with T.Tape() as tape:
        y = T.relu(x)
        with pytest.raises(ContractError):
            tape.backward(y)  # not scalar
    z = T.loss(T.Tensor(np.ones((1, 1))), T.Tensor(np.zeros((1, 1))), "mse")
    with pytest.raises(ContractError):
        tape.backward(z)  # produced off-tape


def test_gradients_accumulate_across_shared_consumers():
    x = T.Tensor(np.array([[1.0, 2.0]], dtype=np.float32), requires_grad=True)
    t = T.Tensor(np.zeros((1, 2), dtype=np.float32))
    with T.Tape() as tape:
        l = T.add(T.loss(x, t, "mse"), T.loss(x, t, "mse"))
        tape.backward(l)
    # each mse contributes 2*x, so the sum is 4*x
    np.testing.assert_allclose(x.grad, 4.0 * x.data, rtol=1e-6)


def _reverse_sweep(tape, root, g=None):
    """Every tensor's gradient by one plain reverse pass over the tape,
    from ``g`` (ones by default) at ``root``; each gradient is stored as a
    copy, so none aliases another."""
    grads = {id(root): np.ones(root.shape, dtype=np.float32) if g is None else g}
    for entry in reversed(tape._entries):
        g_out = grads.get(id(entry.out))
        if g_out is None:
            continue
        for inp, g_in in zip(entry.inputs, entry.backward_fn(g_out)):
            if g_in is not None and inp.requires_grad:
                g_in = np.asarray(g_in, dtype=np.float32)
                key = id(inp)
                grads[key] = grads[key] + g_in if key in grads else g_in.copy()
    return grads


def test_backward_fills_leaf_grads_only():
    # a tiny U-Net: its skip tensors feed both a pool and a concatenation
    model = build_unet(UNetConfig(depth=2, base_channels=4, input_size=(32, 32)), seed=3)
    rng = np.random.default_rng(5)
    x = T.Tensor(rng.random((2, 1, 32, 32), dtype=np.float32))
    target = T.Tensor((rng.random((2, 1, 32, 32)) > 0.5).astype(np.float32))
    with T.Tape() as tape:
        root = T.loss(unet_forward(model, x), target, "dice")
        tape.backward(root)
    want = _reverse_sweep(tape, root)
    outputs = [entry.out for entry in tape._entries]
    assert len(outputs) > 10 and all(t.requires_grad and t.grad is None for t in outputs)
    for name, p in model.params.items():
        assert p.grad.tobytes() == want[id(p)].tobytes(), name


def test_backward_through_aliased_gradients_matches_the_reverse_sweep(monkeypatch):
    # concat_channels hands its inputs two views of one g, and add one g
    # to both of its inputs; a sum written into any of them would reach
    # another tensor's gradient
    rng = np.random.default_rng(21)
    x = T.Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
    y = T.Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
    target = T.Tensor(rng.standard_normal((2, 6, 4, 5)))
    with T.Tape() as tape:
        a = T.concat_channels(x, x)
        b = T.concat_channels(x, y)
        root = T.loss(T.add(T.add(a, b), a), target, "mse")
    want = _reverse_sweep(tape, root)
    handed = []  # every array the sweep passes between backward rules and leaves
    for entry in tape._entries:
        def spy(g, fn=entry.backward_fn):
            grads = fn(g)
            handed.extend([g] + [a for a in grads if a is not None])
            return grads
        entry.backward_fn = spy
    accumulate = T.Tensor.accumulate_grad

    def accumulate_spy(self, g):
        handed.append(g)
        accumulate(self, g)

    monkeypatch.setattr(T.Tensor, "accumulate_grad", accumulate_spy)
    tape.backward(root)
    for leaf, other in ((x, y), (y, x)):
        assert leaf.grad.tobytes() == want[id(leaf)].tobytes()
        assert not np.shares_memory(leaf.grad, other.grad)
        assert not any(np.shares_memory(leaf.grad, a) for a in handed)


def _tiny_block(seed):
    params = {}
    nn.init_conv_block(params, np.random.default_rng(seed), "b", 1, 2)
    return params


def _taped_step(params, x):
    """One forward and backward of a conv block under a fresh tape: the tape."""
    with T.Tape() as tape:
        out = nn.conv_block(T.Tensor(x), params, "b")
        tape.backward(T.loss(out, T.Tensor(np.zeros(out.shape, dtype=np.float32)), "mse"))
    return tape


def _run_threads(targets, timeout=60):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    assert not any(t.is_alive() for t in threads)


def test_a_tape_records_only_its_own_threads_ops():
    # a loaded model's parameters require grad, so a forward pass on another
    # thread would land on this tape if the tape stack were process-wide
    params = _tiny_block(0)
    x = np.ones((1, 1, 6, 6), dtype=np.float32)
    opened, inferred = threading.Event(), threading.Event()
    seen = {}

    def train():
        with T.Tape() as tape:
            opened.set()
            seen["waited"] = inferred.wait(timeout=30)
            out = nn.conv_block(T.Tensor(x), params, "b")
            tape.backward(T.loss(out, T.Tensor(np.zeros(out.shape, dtype=np.float32)), "mse"))
        seen["tape"] = tape

    def infer():
        seen["opened"] = opened.wait(timeout=30)
        seen["other"] = nn.conv_block(T.Tensor(x), params, "b")
        inferred.set()

    _run_threads([train, infer])
    assert seen["opened"] and seen["waited"]
    assert len(seen["tape"]) == 3  # two fused convs and the loss
    assert not seen["other"].requires_grad
    assert T.Tape.current() is None


def test_concurrent_tapes_stay_separate_under_fast_switching():
    x = np.ones((2, 1, 8, 8), dtype=np.float32)
    shared = _tiny_block(1)
    lengths, errors = [], []

    def train(seed):
        params = _tiny_block(seed)
        try:
            for _ in range(20):
                lengths.append(len(_taped_step(params, x)))
        except Exception as exc:  # reported below, with the thread's own error
            errors.append(exc)

    def infer():
        try:
            for _ in range(20):
                if nn.conv_block(T.Tensor(x), shared, "b").requires_grad:
                    errors.append(AssertionError("untaped forward was recorded"))
        except Exception as exc:
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads([lambda s=s: train(s) for s in range(2, 6)] + [infer, infer])
    finally:
        sys.setswitchinterval(old)
    assert errors == []
    assert lengths == [3] * 80


def test_concat_of_tensor_with_itself_accumulates_both_halves():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((1, 2, 2, 2))
    t = rng.standard_normal((1, 4, 2, 2))

    def engine_fn(xt):
        return T.loss(T.concat_channels(xt, xt), T.Tensor(t.astype(np.float32)), "mse")

    def ref_fn(xa):
        return mse_ref(concat_channels_ref(xa, xa), t)

    gradcheck(engine_fn, ref_fn, [x])


# ---------------------------------------------------------------------------
# gradient checks: losses take leaf inputs directly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_grad_mse(seed):
    rng = np.random.default_rng(1000 + seed)
    shape = (int(rng.integers(1, 5)), int(rng.integers(1, 7)))
    gradcheck(
        lambda p, t: T.loss(p, t, "mse"),
        mse_ref,
        [rng.standard_normal(shape), rng.standard_normal(shape)],
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_bce(seed):
    rng = np.random.default_rng(1100 + seed)
    shape = (int(rng.integers(1, 5)), int(rng.integers(1, 7)))
    # keep predictions away from the clipped region where the gradient
    # is defined to vanish
    p = rng.uniform(0.1, 0.9, shape)
    t = rng.uniform(0.1, 0.9, shape)
    gradcheck(lambda a, b: T.loss(a, b, "bce"), bce_ref, [p, t], tol=2e-3)


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_dice(seed):
    rng = np.random.default_rng(1200 + seed)
    shape = (int(rng.integers(1, 4)), int(rng.integers(2, 8)))
    p = rng.uniform(0.1, 0.9, shape)
    t = rng.uniform(0.1, 0.9, shape)
    gradcheck(lambda a, b: T.loss(a, b, "dice"), dice_ref, [p, t])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_smooth_l1(seed):
    rng = np.random.default_rng(1300 + seed)
    shape = (int(rng.integers(1, 5)), int(rng.integers(1, 6)))
    d = rng.uniform(-2.0, 2.0, shape)
    # nudge differences away from the |d| = 1 kink so FD stays two-sided
    d = np.where(np.abs(np.abs(d) - 1.0) < 0.05, d * 1.2, d)
    t = rng.standard_normal(shape)
    gradcheck(lambda a, b: T.loss(a, b, "smooth_l1"), smooth_l1_ref, [t + d, t])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_softmax_cross_entropy(seed):
    rng = np.random.default_rng(1400 + seed)
    n, k = int(rng.integers(1, 5)), int(rng.integers(2, 8))
    logits = rng.standard_normal((n, k))
    target = softmax_rows_ref(rng.standard_normal((n, k)))  # soft labels
    gradcheck(T.softmax_cross_entropy, softmax_xent_ref, [logits, target])


# ---------------------------------------------------------------------------
# gradient checks: ops composed through an mse projection
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_grad_conv2d(seed):
    rng = np.random.default_rng(2000 + seed)
    stride = int(rng.integers(1, 3))
    padding = int(rng.integers(0, 2))
    k = int(rng.integers(1, 4))
    x = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((2, 2, k, k))
    b = rng.standard_normal(2)
    out = conv2d_ref(x, w, b, stride=stride, padding=padding)
    target = np.random.default_rng(9).standard_normal(out.shape)
    engine_fn, ref_fn = _mse_projection(
        lambda xa, wa, ba: T.conv2d(xa, wa, ba, stride=stride, padding=padding),
        lambda xa, wa, ba: conv2d_ref(xa, wa, ba, stride=stride, padding=padding),
        target,
    )
    gradcheck(engine_fn, ref_fn, [x, w, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_max_pool2d(seed):
    rng = np.random.default_rng(2100 + seed)
    # distinct window values keep the argmax stable under the FD step
    vals = rng.permutation(np.linspace(-1.0, 1.0, 36))
    x = vals.reshape(1, 1, 6, 6)
    target = rng.standard_normal((1, 1, 3, 3))
    engine_fn, ref_fn = _mse_projection(T.max_pool2d, max_pool2d_ref, target)
    gradcheck(engine_fn, ref_fn, [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_dense(seed):
    rng = np.random.default_rng(2200 + seed)
    n, d, m = int(rng.integers(1, 5)), int(rng.integers(1, 7)), int(rng.integers(1, 6))
    x = rng.standard_normal((n, d))
    w = rng.standard_normal((d, m))
    b = rng.standard_normal(m)
    target = rng.standard_normal((n, m))
    engine_fn, ref_fn = _mse_projection(T.dense, dense_ref, target)
    gradcheck(engine_fn, ref_fn, [x, w, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_upsample2x(seed):
    rng = np.random.default_rng(2300 + seed)
    x = rng.standard_normal((1, 2, 3, 4))
    target = rng.standard_normal((1, 2, 6, 8))
    engine_fn, ref_fn = _mse_projection(T.upsample2x, upsample2x_ref, target)
    gradcheck(engine_fn, ref_fn, [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_concat_channels(seed):
    rng = np.random.default_rng(2400 + seed)
    a = rng.standard_normal((2, 2, 3, 3))
    b = rng.standard_normal((2, 3, 3, 3))
    target = rng.standard_normal((2, 5, 3, 3))
    engine_fn, ref_fn = _mse_projection(T.concat_channels, concat_channels_ref, target)
    gradcheck(engine_fn, ref_fn, [a, b])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_relu(seed):
    rng = np.random.default_rng(2500 + seed)
    x = rng.uniform(-1.0, 1.0, (3, 6))
    x = np.where(np.abs(x) < 0.02, x + 0.05, x)  # keep FD off the corner
    target = rng.standard_normal((3, 6))
    engine_fn, ref_fn = _mse_projection(T.relu, relu_ref, target)
    gradcheck(engine_fn, ref_fn, [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_sigmoid(seed):
    rng = np.random.default_rng(2600 + seed)
    x = rng.standard_normal((3, 5))
    target = rng.standard_normal((3, 5))
    engine_fn, ref_fn = _mse_projection(T.sigmoid, sigmoid_ref, target)
    gradcheck(engine_fn, ref_fn, [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_softmax_rows(seed):
    rng = np.random.default_rng(2700 + seed)
    x = rng.standard_normal((3, 6))
    target = rng.standard_normal((3, 6))
    engine_fn, ref_fn = _mse_projection(T.softmax_rows, softmax_rows_ref, target)
    gradcheck(engine_fn, ref_fn, [x])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_flatten_add_scale(seed):
    rng = np.random.default_rng(2800 + seed)
    x = rng.standard_normal((2, 2, 3, 2))
    y = rng.standard_normal((2, 12))
    target = rng.standard_normal((2, 12))

    def engine_fn(xt, yt):
        return T.loss(T.add(T.scale(T.flatten(xt), 1.7), yt),
                      T.Tensor(target.astype(np.float32)), "mse")

    def ref_fn(xa, ya):
        return mse_ref(1.7 * xa.reshape(2, 12) + ya, target)

    gradcheck(engine_fn, ref_fn, [x, y])


@pytest.mark.parametrize("seed", SEEDS)
def test_grad_select_rows_with_repeats(seed):
    rng = np.random.default_rng(2900 + seed)
    x = rng.standard_normal((5, 4))
    idx = rng.integers(0, 5, 7)  # repeats force scatter-add in backward
    target = rng.standard_normal((7, 4))

    def engine_fn(xt):
        return T.loss(T.select_rows(xt, idx), T.Tensor(target.astype(np.float32)), "mse")

    def ref_fn(xa):
        return mse_ref(xa[idx], target)

    gradcheck(engine_fn, ref_fn, [x])


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _train_bytes(seed):
    from boneage import nn, optim

    rng = np.random.default_rng(seed)
    params = {}
    nn.init_conv(params, rng, "c", out_ch=2, in_ch=1)
    nn.init_dense(params, rng, "fc", 2 * 16, 1)
    data_rng = np.random.default_rng(99)
    x = data_rng.random((4, 1, 4, 4), dtype=np.float32)
    y = data_rng.random((4, 1), dtype=np.float32)
    state = optim.OptimizerState(learning_rate=0.01)
    for _ in range(5):
        optim.zero_grads(params)
        with T.Tape() as tape:
            h = T.relu(T.conv2d(T.Tensor(x), params["c.w"], params["c.b"], padding=1))
            out = T.dense(T.flatten(h), params["fc.w"], params["fc.b"])
            l = T.loss(T.sigmoid(out), T.Tensor(y), "bce")
            tape.backward(l)
        optim.optimizer_step(params, state)
    return b"".join(p.data.tobytes() for p in params.values())


def test_training_is_bit_deterministic_in_seed():
    assert _train_bytes(5) == _train_bytes(5)
    assert _train_bytes(5) != _train_bytes(6)
