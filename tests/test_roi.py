"""Box algebra, input standardization, and the localization network."""

import math

import numpy as np
import pytest

from boneage.errors import ContractError, DimensionError, TrainingError
from boneage.imaging import GrayImage, resize_bilinear, rotate
from boneage.nn import VggConfig
from boneage.optim import TrainSettings
from boneage.roi import (
    PREPARED_HEIGHT,
    PREPARED_WIDTH,
    RAW_HEIGHT,
    RAW_WIDTH,
    RoiBox,
    build_rpn,
    crop_roi,
    decode_boxes,
    iou,
    predict_roi,
    prepare_roi_input,
    rotate90_box,
    rpn_forward,
    train_roi,
    transform_box_to_prepared,
)
from boneage.tensor import Tensor

from reference import chain_gather_ref, chain_sample_ref, iou_grid_ref, resize_bilinear_gather_ref

SMALL = VggConfig(backbone_channels=(4, 8, 8), input_size=(48, 64), hidden=32)
ONE_EPOCH = TrainSettings(epochs=1, learning_rate=2e-3, batch_size=8)


def _tenth(rng, lo, hi):
    return round(float(rng.uniform(lo, hi)) * 10) / 10


def _random_box(rng, width, height):
    w = max(0.1, _tenth(rng, 0.5, width / 2))
    h = max(0.1, _tenth(rng, 0.5, height / 2))
    x = _tenth(rng, 0.0, width - w)
    y = _tenth(rng, 0.0, height - h)
    return RoiBox(x, y, w, h)


# ---------------------------------------------------------------------------
# RoiBox
# ---------------------------------------------------------------------------


def test_box_rejects_non_positive_extents():
    with pytest.raises(ContractError):
        RoiBox(0, 0, 0, 5)
    with pytest.raises(ContractError):
        RoiBox(0, 0, 5, -1)


def test_box_derived_properties():
    b = RoiBox(2.0, 3.0, 4.0, 6.0)
    assert (b.x2, b.y2) == (6.0, 9.0)
    assert b.area == 24.0
    assert b.center == (4.0, 6.0)
    assert b.as_tuple() == (2.0, 3.0, 4.0, 6.0)
    assert b.scaled(2.0, 0.5).as_tuple() == (4.0, 1.5, 8.0, 3.0)
    assert b.inside(10, 10)
    assert not b.inside(5, 10)


# ---------------------------------------------------------------------------
# iou
# ---------------------------------------------------------------------------


def test_iou_hand_value():
    a = RoiBox(0, 0, 2, 2)
    b = RoiBox(1, 1, 2, 2)
    assert iou(a, b) == pytest.approx(1.0 / 7.0)


def test_iou_disjoint_is_zero():
    assert iou(RoiBox(0, 0, 1, 1), RoiBox(5, 5, 1, 1)) == 0.0
    # touching edges intersect with zero area
    assert iou(RoiBox(0, 0, 1, 1), RoiBox(1, 0, 1, 1)) == 0.0


@pytest.mark.parametrize("seed", range(10))
def test_iou_matches_grid_counting_oracle(seed):
    rng = np.random.default_rng(seed)
    a = _random_box(rng, 20, 20)
    b = _random_box(rng, 20, 20)
    want = iou_grid_ref(a.as_tuple(), b.as_tuple())
    assert iou(a, b) == pytest.approx(want, abs=1e-9)
    assert iou(b, a) == pytest.approx(iou(a, b), abs=1e-12)  # symmetric
    assert 0.0 <= iou(a, b) <= 1.0


def test_iou_is_one_only_for_identical_boxes():
    a = RoiBox(1, 1, 3, 3)
    assert iou(a, RoiBox(1, 1, 3, 3)) == 1.0
    assert iou(a, RoiBox(1, 1, 3, 3.1)) < 1.0
    assert iou(a, RoiBox(1.1, 1, 3, 3)) < 1.0


# ---------------------------------------------------------------------------
# box transforms
# ---------------------------------------------------------------------------


def test_rotate90_box_four_turns_is_identity():
    b = RoiBox(3.0, 7.0, 5.0, 2.0)
    w, h = 30.0, 20.0
    out = b
    # each quarter turn swaps the frame extents
    for width in (w, h, w, h):
        out = rotate90_box(out, width)
    assert out.as_tuple() == pytest.approx(b.as_tuple())


def test_rotate90_box_tracks_pixels():
    # paint the box region, rotate the image, re-locate the painted region
    img = np.zeros((20, 30), dtype=np.float32)
    b = RoiBox(4, 6, 5, 3)
    img[int(b.y) : int(b.y2), int(b.x) : int(b.x2)] = 1.0
    rotated = rotate(GrayImage(img), 90.0)
    rb = rotate90_box(b, 30)
    ys, xs = np.nonzero(rotated.pixels)
    assert (xs.min(), ys.min()) == (rb.x, rb.y)
    assert (xs.max() + 1, ys.max() + 1) == (rb.x2, rb.y2)


def test_prepare_roi_input_size_contract():
    with pytest.raises(ContractError):
        prepare_roi_input(GrayImage(np.zeros((480, 719), dtype=np.float32)))
    out = prepare_roi_input(GrayImage(np.zeros((480, 720), dtype=np.float32)))
    assert (out.width, out.height) == (PREPARED_WIDTH, PREPARED_HEIGHT) == (720, 960)


def test_transform_box_to_prepared_stays_inside():
    rng = np.random.default_rng(0)
    for _ in range(20):
        b = _random_box(rng, 720, 480)
        out = transform_box_to_prepared(b)
        assert out.inside(PREPARED_WIDTH, PREPARED_HEIGHT)


def test_transform_box_to_prepared_tracks_pixels():
    img = np.zeros((480, 720), dtype=np.float32)
    b = RoiBox(100, 150, 80, 60)
    img[int(b.y) : int(b.y2), int(b.x) : int(b.x2)] = 1.0
    prepared = prepare_roi_input(GrayImage(img))
    tb = transform_box_to_prepared(b)
    ys, xs = np.nonzero(prepared.pixels > 0.5)
    # bilinear resize smears edges; centers must agree tightly
    cx, cy = (xs.min() + xs.max() + 1) / 2.0, (ys.min() + ys.max() + 1) / 2.0
    tcx, tcy = tb.center
    assert abs(cx - tcx) <= 2.0
    assert abs(cy - tcy) <= 2.0


# ---------------------------------------------------------------------------
# crop_roi
# ---------------------------------------------------------------------------


def test_crop_returns_requested_patch_size():
    img = GrayImage(np.random.default_rng(1).random((100, 100), dtype=np.float32))
    patch = crop_roi(img, RoiBox(10, 20, 30, 40), 64, 64)
    assert (patch.width, patch.height) == (64, 64)
    patch = crop_roi(img, RoiBox(10, 20, 30, 40), out_width=16, out_height=24)
    assert (patch.width, patch.height) == (16, 24)


def test_crop_of_uniform_region_is_uniform():
    px = np.zeros((50, 50), dtype=np.float32)
    px[10:30, 10:30] = 0.7
    patch = crop_roi(GrayImage(px), RoiBox(12, 12, 10, 10), out_width=8, out_height=8)
    np.testing.assert_allclose(patch.pixels, 0.7, atol=1e-6)


def test_crop_survives_subpixel_boxes():
    img = GrayImage(np.random.default_rng(2).random((50, 50), dtype=np.float32))
    patch = crop_roi(img, RoiBox(10.4, 10.4, 0.1, 0.1), 64, 64)
    assert (patch.width, patch.height) == (64, 64)


def test_crop_rejects_out_of_frame_boxes():
    img = GrayImage(np.zeros((50, 50), dtype=np.float32))
    with pytest.raises(ContractError):
        crop_roi(img, RoiBox(40, 40, 20, 20), 64, 64)
    with pytest.raises(ContractError):
        crop_roi(img, RoiBox(-1, 0, 5, 5), 64, 64)


# ---------------------------------------------------------------------------
# the prediction frames as one sample of the net-size bone image
# ---------------------------------------------------------------------------

# full frame, boxes on the right and bottom edges, 1-pixel boxes, interior
CHAIN_BOXES = [
    (0.0, 0.0, 720.0, 960.0),
    (650.3, 900.5, 69.7, 59.5),
    (0.0, 811.0, 720.0, 149.0),
    (604.0, 0.0, 116.0, 960.0),
    (719.0, 959.0, 1.0, 1.0),
    (0.0, 0.0, 1.0, 1.0),
    (300.5, 400.25, 1.0, 1.0),
    (719.5, 10.0, 0.5, 3.0),
    (123.4, 567.8, 210.9, 97.1),
]

# segment()'s resize to the working frame, then prepare_roi_input()
PREPARE_STEPS = [
    ("resize", RAW_WIDTH, RAW_HEIGHT), ("turn", 1), ("resize", PREPARED_WIDTH, PREPARED_HEIGHT)
]


def _small_bone(seed):
    """A net-size masked bone image: mostly zero with bright structure."""
    rng = np.random.default_rng(seed)
    px = rng.random((64, 96), dtype=np.float32)
    px[rng.random((64, 96)) < 0.6] = 0.0
    return px


def _lazy_prepared(small):
    bone = resize_bilinear(GrayImage(small), RAW_WIDTH, RAW_HEIGHT)  # as segment() leaves it
    return bone, prepare_roi_input(bone)


def _crop_steps(box, out_w, out_h):
    """crop_roi's pixel rectangle of ``box`` on the prepared frame, then its resize."""
    x, y, w, h = box
    x0, y0 = max(0, math.floor(x)), max(0, math.floor(y))
    x1 = min(PREPARED_WIDTH, max(x0 + 1, math.ceil(x + w)))
    y1 = min(PREPARED_HEIGHT, max(y0 + 1, math.ceil(y + h)))
    return [("crop", x0, y0, x1, y1), ("resize", out_w, out_h)]


@pytest.mark.parametrize("seed", range(3))
def test_lazy_frames_are_byte_identical_to_the_eager_chain(seed):
    """Every frame is one sample of the net-size bone image. The eager
    chain reads each frame's pixels as it is built, as the --verbose dumps
    do; its frames must keep the bytes of frames from a chain nothing else
    has evaluated, and both must be the oracles' single sample."""
    small = _small_bone(seed)
    bone, prepared = _lazy_prepared(small)
    bone.pixels, prepared.pixels  # the eager chain: both full frames evaluated
    # localizer input
    got = resize_bilinear(_lazy_prepared(small)[1], 96, 128).pixels
    assert got.tobytes() == resize_bilinear(prepared, 96, 128).pixels.tobytes()
    steps = PREPARE_STEPS + [("resize", 96, 128)]
    assert got.tobytes() == chain_gather_ref(small, steps).tobytes()
    np.testing.assert_allclose(got, chain_sample_ref(small, steps), atol=1e-5)
    rng = np.random.default_rng(seed)
    boxes = CHAIN_BOXES + [_random_box(rng, PREPARED_WIDTH, PREPARED_HEIGHT).as_tuple()]
    for box in boxes:
        got = crop_roi(_lazy_prepared(small)[1], RoiBox(*box), 64, 64).pixels
        assert got.tobytes() == crop_roi(prepared, RoiBox(*box), 64, 64).pixels.tobytes(), box
        steps = PREPARE_STEPS + _crop_steps(box, 64, 64)
        assert got.tobytes() == chain_gather_ref(small, steps).tobytes(), box
        np.testing.assert_allclose(got, chain_sample_ref(small, steps), atol=1e-5, err_msg=str(box))
    # the full frames, as the --verbose dumps write them
    assert prepared.pixels.tobytes() == chain_gather_ref(small, PREPARE_STEPS).tobytes()
    assert bone.pixels.tobytes() == resize_bilinear_gather_ref(small, RAW_WIDTH, RAW_HEIGHT).tobytes()


# ---------------------------------------------------------------------------
# network plumbing
# ---------------------------------------------------------------------------


def test_build_rpn_is_deterministic():
    a = build_rpn(SMALL, seed=3)
    b = build_rpn(SMALL, seed=3)
    for name in a.params:
        assert a.params[name].data.tobytes() == b.params[name].data.tobytes()


def test_rpn_forward_shapes():
    model = build_rpn(SMALL, seed=0)
    x = Tensor(np.random.default_rng(0).random((3, 1, 64, 48), dtype=np.float32))
    center, size, conf = rpn_forward(model, x)
    assert center.data.shape == (3, 2)
    assert size.data.shape == (3, 2)
    assert conf.data.shape == (3, 1)


def test_rpn_forward_rejects_wrong_shapes():
    model = build_rpn(SMALL, seed=0)
    with pytest.raises(DimensionError):
        rpn_forward(model, Tensor(np.zeros((1, 1, 48, 64), dtype=np.float32)))
    with pytest.raises(DimensionError):
        rpn_forward(model, Tensor(np.zeros((1, 2, 64, 48), dtype=np.float32)))


@pytest.mark.parametrize("seed", range(8))
def test_decode_boxes_always_valid(seed):
    rng = np.random.default_rng(seed)
    n = 16
    center = rng.random((n, 2))  # sigmoid range
    raw = rng.normal(0.0, 50.0, size=(n, 2))  # wild log-size heads
    boxes = decode_boxes(center, raw, 96.0, 128.0)
    for x, y, w, h in boxes:
        assert w >= 1.0 and h >= 1.0
        assert x >= 0.0 and y >= 0.0
        assert x + w <= 96.0 + 1e-9
        assert y + h <= 128.0 + 1e-9


def test_decode_boxes_centered_unit():
    # sigmoid output 0.5 and log-size 0 decode to the full frame
    boxes = decode_boxes(np.array([[0.5, 0.5]]), np.zeros((1, 2)), 10.0, 20.0)
    np.testing.assert_allclose(boxes[0], [0.0, 0.0, 10.0, 20.0])


def test_predict_roi_contract():
    model = build_rpn(SMALL, seed=1)
    with pytest.raises(ContractError):
        predict_roi(model, GrayImage(np.zeros((480, 720), dtype=np.float32)))
    prepared = GrayImage(
        np.random.default_rng(1).random((PREPARED_HEIGHT, PREPARED_WIDTH), dtype=np.float32)
    )
    box, confidence = predict_roi(model, prepared)
    assert box.inside(PREPARED_WIDTH, PREPARED_HEIGHT)
    assert 0.0 < confidence < 1.0


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _boxed_image(rng, width, height, box):
    px = np.full((height, width), 0.05, dtype=np.float32)
    px += rng.normal(0, 0.01, size=px.shape).astype(np.float32)
    px = np.clip(px, 0.0, 1.0)
    px[int(box.y) : int(box.y2), int(box.x) : int(box.x2)] = 0.9
    return GrayImage(px)


def test_train_rejects_out_of_frame_positive_box():
    rng = np.random.default_rng(0)
    img = GrayImage(rng.random((64, 48), dtype=np.float32))
    bad = RoiBox(40, 40, 20, 30)
    with pytest.raises(ContractError, match="sample 0"):
        train_roi(build_rpn(SMALL, seed=0), [(img, bad, True)], ONE_EPOCH)


def test_train_on_negatives_only_runs():
    rng = np.random.default_rng(1)
    data = [
        (GrayImage(rng.random((64, 48), dtype=np.float32)), RoiBox(0, 0, 1, 1), False)
        for _ in range(4)
    ]
    model, history = train_roi(build_rpn(SMALL, seed=0), data, TrainSettings(2, 2e-3, 8))
    assert len(history) == 2
    assert all(np.isfinite(h) for h in history)


def test_train_reports_epoch_and_batch_on_blowup():
    rng = np.random.default_rng(2)
    img = GrayImage(rng.random((64, 48), dtype=np.float32))
    model = build_rpn(SMALL, seed=0)
    model.params["head_conf.b"].data[:] = np.nan
    with pytest.raises(TrainingError, match="epoch 0, batch 0"):
        train_roi(model, [(img, RoiBox(10, 10, 20, 20), True)], ONE_EPOCH)


def test_train_is_deterministic():
    rng = np.random.default_rng(3)
    box = RoiBox(10, 16, 20, 24)
    data = [(_boxed_image(rng, 48, 64, box), box, True) for _ in range(3)]
    runs = []
    for _ in range(2):
        model, history = train_roi(build_rpn(SMALL, seed=5), data, TrainSettings(3, 2e-3, 8), seed=7)
        runs.append((history, {n: t.data.tobytes() for n, t in model.params.items()}))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_fit_steps_every_batch_and_logs_once_per_epoch(monkeypatch):
    # the benchmark times steps by rebinding nn.minibatches and epochs by log_fn
    from boneage import nn

    steps = []
    orig = nn.minibatches

    def counting(n, batch_size, rng):
        for idx in orig(n, batch_size, rng):
            steps.append(len(idx))
            yield idx

    monkeypatch.setattr(nn, "minibatches", counting)
    rng = np.random.default_rng(8)
    box = RoiBox(10, 16, 20, 24)
    data = [(_boxed_image(rng, 48, 64, box), box, i % 2 == 0) for i in range(5)]
    logged = []
    _, history = train_roi(
        build_rpn(SMALL, seed=0),
        data,
        TrainSettings(epochs=2, learning_rate=1e-3, batch_size=2),
        log_fn=logged.append,
    )
    assert steps == [2, 2, 1] * 2  # 3 batches per epoch x 2 epochs
    assert logged == [f"roi epoch {e}/2 loss {h:.5f}" for e, h in zip((1, 2), history)]


def test_single_sample_overfit_localizes():
    rng = np.random.default_rng(4)
    # box on the prepared frame; the trainer takes both at net input,
    # as pipeline.roi_data hands them over
    truth = RoiBox(200.0, 350.0, 180.0, 220.0)
    img = _boxed_image(rng, PREPARED_WIDTH, PREPARED_HEIGHT, truth)
    small = resize_bilinear(img, SMALL.width, SMALL.height)
    box = truth.scaled(SMALL.width / PREPARED_WIDTH, SMALL.height / PREPARED_HEIGHT)
    model = build_rpn(SMALL, seed=6)
    model, _ = train_roi(
        model,
        [(small, box, True)],
        TrainSettings(epochs=300, learning_rate=3e-3, batch_size=1),
        seed=0,
    )
    pred, confidence = predict_roi(model, img)
    assert iou(pred, truth) > 0.9
    assert confidence > 0.9
