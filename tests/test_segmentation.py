"""Segmentation network: geometry contracts, scoring, and overfit sanity."""

import numpy as np
import pytest

from boneage.errors import ConfigError, DimensionError, TrainingError
from boneage.imaging import GrayImage
from boneage.optim import TrainSettings
from boneage.phantom import PhantomSpec, generate_phantom
from boneage.roi import RAW_HEIGHT, RAW_WIDTH
from boneage.segmentation import (
    UNetConfig,
    build_unet,
    dice_score,
    segment,
    train_segmentation,
    unet_forward,
)
from boneage.tensor import Tensor

from reference import dice_mask_ref

TINY = UNetConfig(depth=2, base_channels=4, input_size=(32, 32))
ONE_EPOCH = TrainSettings(epochs=1, learning_rate=1e-3, batch_size=16)


def _zeroed(model):
    for t in model.params.values():
        t.data[:] = 0.0
    return model


# ---------------------------------------------------------------------------
# config and construction
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        UNetConfig(depth=0)
    with pytest.raises(ConfigError):
        UNetConfig(base_channels=0)
    with pytest.raises(ConfigError):
        UNetConfig(threshold=0.0)
    with pytest.raises(ConfigError):
        UNetConfig(threshold=1.0)
    with pytest.raises(ConfigError):
        UNetConfig(depth=3, input_size=(100, 64))  # 100 % 8 != 0


def test_default_config():
    cfg = UNetConfig()
    assert cfg.depth == 3
    assert cfg.base_channels == 8
    assert cfg.input_size == (96, 64)
    assert cfg.level_channels(0) == 8
    assert cfg.level_channels(2) == 32


def test_build_is_deterministic_in_seed():
    a = build_unet(TINY, seed=5)
    b = build_unet(TINY, seed=5)
    c = build_unet(TINY, seed=6)
    for name in a.params:
        assert a.params[name].data.tobytes() == b.params[name].data.tobytes()
    assert any(
        a.params[n].data.tobytes() != c.params[n].data.tobytes() for n in a.params
    )


@pytest.mark.parametrize(
    "cfg",
    [
        TINY,
        UNetConfig(depth=1, base_channels=2, input_size=(16, 16)),
        UNetConfig(depth=3, base_channels=8, input_size=(96, 64)),
    ],
)
def test_forward_shape_and_range(cfg):
    model = build_unet(cfg, seed=0)
    x = Tensor(np.random.default_rng(0).random((2, 1, cfg.height, cfg.width), dtype=np.float32))
    out = unet_forward(model, x)
    assert out.data.shape == (2, 1, cfg.height, cfg.width)
    assert out.data.min() > 0.0 and out.data.max() < 1.0


def test_forward_rejects_wrong_shapes():
    model = build_unet(TINY, seed=0)
    with pytest.raises(DimensionError):
        unet_forward(model, Tensor(np.zeros((1, 1, 32), dtype=np.float32)))
    with pytest.raises(DimensionError):
        unet_forward(model, Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)))
    with pytest.raises(DimensionError):
        unet_forward(model, Tensor(np.zeros((1, 1, 48, 32), dtype=np.float32)))


def test_zeroed_network_outputs_half_everywhere():
    model = _zeroed(build_unet(TINY, seed=0))
    x = Tensor(np.random.default_rng(1).random((1, 1, 32, 32), dtype=np.float32))
    out = unet_forward(model, x)
    np.testing.assert_allclose(out.data, 0.5, atol=1e-7)


# ---------------------------------------------------------------------------
# segment()
# ---------------------------------------------------------------------------


def test_segment_output_sizes():
    model = build_unet(TINY, seed=0)
    img = GrayImage(np.random.default_rng(2).random((200, 300), dtype=np.float32))
    mask, bone = segment(model, img)
    assert (mask.width, mask.height) == TINY.input_size
    assert (bone.width, bone.height) == (RAW_WIDTH, RAW_HEIGHT) == (720, 480)


def test_segment_never_brightens_pixels():
    model = build_unet(TINY, seed=3)
    rng = np.random.default_rng(3)
    img = GrayImage(rng.random((64, 96), dtype=np.float32))
    _, bone = segment(model, img)
    from boneage.imaging import resize_bilinear

    # segment() evaluates the net-size image before masking it, so the
    # unmasked reference resamples that evaluated image too
    small = GrayImage(resize_bilinear(img, 32, 32).pixels)
    plain = resize_bilinear(small, RAW_WIDTH, RAW_HEIGHT)
    assert np.all(bone.pixels <= plain.pixels + 1e-6)


def test_segment_with_zeroed_net_masks_everything_in():
    # sigmoid(0) = 0.5 fires the default 0.5 threshold, so the bone image
    # is the whole (resized) input
    model = _zeroed(build_unet(TINY, seed=0))
    img = GrayImage(np.full((40, 60), 0.25, dtype=np.float32))
    mask, bone = segment(model, img)
    np.testing.assert_allclose(mask.pixels, 0.5, atol=1e-7)
    np.testing.assert_allclose(bone.pixels, 0.25, atol=1e-5)


# ---------------------------------------------------------------------------
# dice_score
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_dice_matches_counting_oracle(seed):
    rng = np.random.default_rng(seed)
    a = (rng.random((17, 13)) > 0.5).astype(np.float32)
    b = (rng.random((17, 13)) > 0.5).astype(np.float32)
    assert dice_score(a, b) == pytest.approx(dice_mask_ref(a, b), abs=1e-12)


def test_dice_identical_masks_is_one():
    m = (np.random.default_rng(1).random((8, 8)) > 0.5).astype(np.float32)
    assert dice_score(m, m) == 1.0


def test_dice_both_empty_is_one():
    z = np.zeros((4, 4), dtype=np.float32)
    assert dice_score(z, z) == 1.0


def test_dice_disjoint_is_zero():
    a = np.zeros((2, 2), dtype=np.float32)
    a[0, 0] = 1.0
    b = np.zeros((2, 2), dtype=np.float32)
    b[1, 1] = 1.0
    assert dice_score(a, b) == 0.0


def test_dice_accepts_gray_images_and_soft_masks():
    img = GrayImage(np.full((4, 4), 0.8, dtype=np.float32))
    assert dice_score(img, np.ones((4, 4))) == 1.0  # 0.8 >= threshold 0.5
    assert dice_score(img, np.ones((4, 4)), threshold=0.9) == 0.0


def test_dice_shape_mismatch():
    with pytest.raises(DimensionError):
        dice_score(np.zeros((2, 2)), np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def _phantom_pair(seed):
    s = generate_phantom(
        PhantomSpec(seed=seed, maturity=0.5, sex="female", image_size=(32, 32), noise_level=0.0)
    )
    return s.image, s.bone_mask


def test_training_rejects_non_binary_mask_at_net_size():
    img = GrayImage(np.random.default_rng(0).random((32, 32), dtype=np.float32))
    mask = GrayImage(np.full((32, 32), 0.3, dtype=np.float32))
    with pytest.raises(TrainingError, match="not binary"):
        train_segmentation(build_unet(TINY, seed=0), [(img, mask)], ONE_EPOCH)


def test_training_rejects_mismatched_pair_sizes():
    img = GrayImage(np.zeros((32, 32), dtype=np.float32))
    mask = GrayImage(np.zeros((16, 32), dtype=np.float32))
    with pytest.raises(DimensionError, match="sample 0"):
        train_segmentation(build_unet(TINY, seed=0), [(img, mask)], ONE_EPOCH)


def test_training_reports_epoch_and_batch_on_blowup():
    model = build_unet(TINY, seed=0)
    model.params["head.b"].data[:] = np.nan
    with pytest.raises(TrainingError, match="epoch 0, batch 0"):
        train_segmentation(model, [_phantom_pair(0)], ONE_EPOCH)


def test_training_is_deterministic():
    runs = []
    for _ in range(2):
        model = build_unet(TINY, seed=1)
        model, history = train_segmentation(
            model, [_phantom_pair(0), _phantom_pair(1)], TrainSettings(3, 1e-3, 16), seed=9
        )
        runs.append((history, {n: t.data.tobytes() for n, t in model.params.items()}))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_single_sample_overfit_drives_dice_loss_down():
    from boneage.tensor import Tape, loss

    pair = _phantom_pair(3)
    model = build_unet(UNetConfig(depth=2, base_channels=8, input_size=(32, 32)), seed=2)
    model, history = train_segmentation(
        model,
        [pair],
        TrainSettings(epochs=120, learning_rate=1e-2, batch_size=1),
        seed=0,
    )
    assert history[-1] < history[0]
    with Tape():
        pred = unet_forward(model, Tensor(pair[0].pixels[None, None]))
        dice_loss = loss(pred, Tensor(pair[1].pixels[None, None]), "dice")
    assert float(dice_loss.data) < 0.05
