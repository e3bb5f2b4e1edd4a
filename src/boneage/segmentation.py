"""Bone/soft-tissue segmentation with a small encoder-decoder network.

The network is the usual contracting/expanding shape: each encoder
level doubles the channel count and halves both extents, the bottleneck
doubles channels once more, and each decoder level upsamples, merges
the matching encoder output, and halves the channel count. A final
1x1 convolution plus sigmoid produces a per-pixel bone probability.

The net runs at ``config.input_size`` (default 96x64, same 3:2 aspect
as the 720x480 working size); ``segment`` accepts an image of any size
and returns the soft mask at net resolution plus the masked bone image
at 720x480.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import nn
from .errors import ConfigError, DimensionError, TrainingError
from .imaging import GrayImage, resize_bilinear
from .optim import TrainSettings
from .roi import RAW_HEIGHT, RAW_WIDTH
from .tensor import Tensor, add, concat_channels, conv2d, loss, max_pool2d, sigmoid, upsample2x


@dataclass(frozen=True)
class UNetConfig(nn.InputPlane):
    """Geometry of the segmentation network."""

    depth: int = 3
    base_channels: int = 8
    input_size: Tuple[int, int] = (96, 64)
    threshold: float = 0.5

    def __post_init__(self):
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.base_channels < 1:
            raise ConfigError(f"base_channels must be >= 1, got {self.base_channels}")
        if not 0.0 < self.threshold < 1.0:
            raise ConfigError(f"threshold must be in (0, 1), got {self.threshold}")
        nn.check_divisible(self.input_size, self.depth)

    def level_channels(self, level: int) -> int:
        return self.base_channels * 2 ** level


def build_unet(config: UNetConfig = UNetConfig(), seed: Optional[int] = 0) -> nn.Model:
    """Initialize the segmentation network's parameters; with ``seed``
    None they are zeros for ``restore_params`` to fill."""
    rng = nn.init_rng(seed)
    params: Dict[str, Tensor] = {}
    in_ch = 1
    for level in range(config.depth):
        out_ch = config.level_channels(level)
        nn.init_conv_block(params, rng, f"enc{level}", in_ch, out_ch)
        in_ch = out_ch
    nn.init_conv_block(params, rng, "bottleneck", in_ch, config.level_channels(config.depth))
    for level in reversed(range(config.depth)):
        skip_ch = config.level_channels(level)
        up_ch = config.level_channels(level + 1)
        # merged input: upsampled coarse features plus the skip
        nn.init_conv_block(params, rng, f"dec{level}", up_ch + skip_ch, skip_ch)
    nn.init_conv(params, rng, "head", 1, config.base_channels, k=1)
    return nn.Model(config, params)


def unet_forward(model: nn.Model, x: Tensor) -> Tensor:
    """Per-pixel bone probability, shape (N, 1, height, width)."""
    cfg = model.config
    nn.check_input(x, cfg.width, cfg.height)
    p = model.params
    skips = []
    t = x
    for level in range(cfg.depth):
        t = nn.conv_block(t, p, f"enc{level}")
        skips.append(t)
        t = max_pool2d(t)
    t = nn.conv_block(t, p, "bottleneck")
    for level in reversed(range(cfg.depth)):
        t = concat_channels(upsample2x(t), skips[level])
        t = nn.conv_block(t, p, f"dec{level}")
    logits = conv2d(t, p["head.w"], p["head.b"], stride=1, padding=0)
    return sigmoid(logits)


def segment(model: nn.Model, img: GrayImage) -> Tuple[GrayImage, GrayImage]:
    """Isolate bone: returns (soft mask, bone image).

    The mask is the sigmoid output at net resolution. The bone image
    keeps the pixels where the binarized mask fires, zeroes the rest,
    and is resized to the 720x480 working size.
    """
    cfg = model.config
    small = resize_bilinear(img, cfg.width, cfg.height)
    out = unet_forward(model, Tensor(small.pixels[None, None, :, :]))
    mask = GrayImage(out.data[0, 0])
    hard = (mask.pixels >= cfg.threshold).astype(np.float32)
    bone = GrayImage(small.pixels * hard)
    return mask, resize_bilinear(bone, RAW_WIDTH, RAW_HEIGHT)


def dice_score(pred, target, threshold: float = 0.5) -> float:
    """Overlap of two masks: 2|A.B| / (|A| + |B|); 1.0 if both empty."""
    a = pred.pixels if isinstance(pred, GrayImage) else np.asarray(pred)
    b = target.pixels if isinstance(target, GrayImage) else np.asarray(target)
    if a.shape != b.shape:
        raise DimensionError(f"mask shapes differ: {a.shape} vs {b.shape}")
    ah = a >= threshold
    bh = b >= threshold
    total = ah.sum() + bh.sum()
    if total == 0:
        return 1.0
    return float(2.0 * np.logical_and(ah, bh).sum() / total)


def train_segmentation(
    model: nn.Model,
    dataset: Sequence[Tuple[GrayImage, GrayImage]],
    settings: TrainSettings,
    seed: int = 0,
    log_fn=None,
) -> Tuple[nn.Model, List[float]]:
    """Fit on (image, binary mask) pairs at net size
    (``pipeline.segmentation_data`` makes them).

    The loss is cross-entropy plus overlap loss, equally weighted.
    Returns the model and the mean loss per epoch.
    """
    images = nn.planes([img for img, _ in dataset], model.config)
    masks = nn.planes([mask for _, mask in dataset], model.config)
    for i, mask in enumerate(masks):
        bad = np.setdiff1d(np.unique(mask), [0.0, 1.0])
        if bad.size:
            raise TrainingError(f"sample {i}: mask is not binary (found {bad[:4]})")

    def batch_loss(idx: np.ndarray) -> Tensor:
        pred = unet_forward(model, Tensor(images[idx]))
        target = Tensor(masks[idx])
        return add(loss(pred, target, "bce"), loss(pred, target, "dice"))

    history = nn.fit(model.params, len(dataset), batch_loss, settings, seed, "seg", log_fn)
    return model, history
