"""Joint-region localization: box algebra and the region proposal net.

Boxes are (x, y, w, h) with the origin at the top-left corner, in
pixels of whichever image they are measured on. The network, the VGG
net of ``nn`` with three heads, regresses a single box per image
directly — five outputs: two sigmoid-squashed center coordinates, two
log-scale extents, and a confidence logit scoring whether the input
shows a real joint at all.

Input standardization: the 720x480 bone image is rotated a quarter
turn so the limb axis runs vertically, then resized to 720x960, the
frame that ``predict_roi`` reports boxes in. The network itself runs at
64x96 by default: the segmenter's 96x64 grid turned a quarter, so its
input is that turn of the net-size bone image, pixel for pixel, with no
resampling (see ``imaging``). Box coordinates move between the net
input and the 720x960 frame by one factor per axis (11.25 across and 10
down at the defaults).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import nn
from .errors import ContractError
from .imaging import GrayImage, crop, resize_bilinear, rotate
from .optim import TrainSettings
from .tensor import Tensor, add, loss, select_rows, sigmoid

RAW_WIDTH = 720
RAW_HEIGHT = 480
PREPARED_WIDTH = 720
PREPARED_HEIGHT = 960


@dataclass
class RoiBox:
    """Axis-aligned box: top-left corner plus positive extent, in pixels."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if self.w <= 0 or self.h <= 0:
            raise ContractError(f"box extents must be > 0, got w={self.w}, h={self.h}")

    @property
    def x2(self) -> float:
        return self.x + self.w

    @property
    def y2(self) -> float:
        return self.y + self.h

    @property
    def area(self) -> float:
        return self.w * self.h

    @property
    def center(self) -> Tuple[float, float]:
        return (self.x + self.w / 2.0, self.y + self.h / 2.0)

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.x, self.y, self.w, self.h)

    def scaled(self, sx: float, sy: float) -> "RoiBox":
        return RoiBox(self.x * sx, self.y * sy, self.w * sx, self.h * sy)

    def inside(self, width: float, height: float, slop: float = 1e-6) -> bool:
        return (
            self.x >= -slop
            and self.y >= -slop
            and self.x2 <= width + slop
            and self.y2 <= height + slop
        )


def iou(a: RoiBox, b: RoiBox) -> float:
    """Intersection over union; 0 when disjoint."""
    ix = max(0.0, min(a.x2, b.x2) - max(a.x, b.x))
    iy = max(0.0, min(a.y2, b.y2) - max(a.y, b.y))
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def rotate90_box(box: RoiBox, input_width: float) -> RoiBox:
    """Map a box through a +90 degree rotation of its image.

    The rotated image has swapped extents; a box at (x, y, w, h) lands
    at (y, input_width - x - w) with swapped extents.
    """
    return RoiBox(x=box.y, y=input_width - box.x - box.w, w=box.h, h=box.w)


def prepare_roi_input(bone_image: GrayImage) -> GrayImage:
    """Standardize a 720x480 bone image to the 720x960 localization frame."""
    if (bone_image.width, bone_image.height) != (RAW_WIDTH, RAW_HEIGHT):
        raise ContractError(
            f"expected a {RAW_WIDTH}x{RAW_HEIGHT} image, got "
            f"{bone_image.width}x{bone_image.height}"
        )
    out = rotate(bone_image, 90.0)  # now 480 wide, 720 tall
    return resize_bilinear(out, PREPARED_WIDTH, PREPARED_HEIGHT)


def transform_box_to_prepared(box: RoiBox) -> RoiBox:
    """Carry a box on the 720x480 image through the same standardization."""
    out = rotate90_box(box, RAW_WIDTH)
    # rotated frame is RAW_HEIGHT wide and RAW_WIDTH tall
    return out.scaled(PREPARED_WIDTH / RAW_HEIGHT, PREPARED_HEIGHT / RAW_WIDTH)


def crop_roi(img: GrayImage, box: RoiBox, out_width: int, out_height: int) -> GrayImage:
    """Cut the box out of the image and resize it to a fixed patch."""
    if not box.inside(img.width, img.height):
        raise ContractError(
            f"box {box.as_tuple()} not inside a {img.width}x{img.height} image"
        )
    x0 = max(0, int(math.floor(box.x)))
    y0 = max(0, int(math.floor(box.y)))
    x1 = min(img.width, max(x0 + 1, int(math.ceil(box.x2))))
    y1 = min(img.height, max(y0 + 1, int(math.ceil(box.y2))))
    return resize_bilinear(crop(img, x0, y0, x1, y1), out_width, out_height)


# ---------------------------------------------------------------------------
# the network
# ---------------------------------------------------------------------------

RPN_HEADS = {"head_center": 2, "head_size": 2, "head_conf": 1}


def build_rpn(config: nn.VggConfig, seed: Optional[int] = 0) -> nn.Model:
    """Initialize the localizer, the VGG net with ``RPN_HEADS``; with
    ``seed`` None its parameters are zeros for ``restore_params``."""
    return nn.build_vgg(config, RPN_HEADS, seed)


def rpn_forward(model: nn.Model, x: Tensor) -> Tuple[Tensor, Tensor, Tensor]:
    """Run the net; returns the center, size and confidence logits."""
    return nn.vgg_forward(model, x, RPN_HEADS)


def decode_boxes(
    center_sig: np.ndarray, size_raw: np.ndarray, width: float, height: float
) -> np.ndarray:
    """Turn head outputs into (x, y, w, h) boxes clamped inside the image.

    ``center_sig`` is already sigmoid-squashed to (0, 1); sizes are
    log-scale, capped at the full extent and floored at one pixel, and
    the box is slid (not shrunk) back inside the frame, so every
    decoded box is valid whatever the raw heads emit.
    """
    cx = center_sig[:, 0] * width
    cy = center_sig[:, 1] * height
    bw = np.clip(np.exp(np.minimum(size_raw[:, 0], 0.0)) * width, 1.0, width)
    bh = np.clip(np.exp(np.minimum(size_raw[:, 1], 0.0)) * height, 1.0, height)
    x = np.clip(cx - bw / 2.0, 0.0, width - bw)
    y = np.clip(cy - bh / 2.0, 0.0, height - bh)
    return np.stack([x, y, bw, bh], axis=1)


def predict_roi(model: nn.Model, prepared: GrayImage) -> Tuple[RoiBox, float]:
    """Localize the joint on a standardized 720x960 image.

    Returns the box in prepared-image pixels and the probability that
    the input shows a true joint.
    """
    if (prepared.width, prepared.height) != (PREPARED_WIDTH, PREPARED_HEIGHT):
        raise ContractError(
            f"expected a {PREPARED_WIDTH}x{PREPARED_HEIGHT} standardized image, "
            f"got {prepared.width}x{prepared.height}"
        )
    cfg = model.config
    small = resize_bilinear(prepared, cfg.width, cfg.height)
    center, size, conf = rpn_forward(model, Tensor(small.pixels[None, None, :, :]))
    center_sig = 1.0 / (1.0 + np.exp(-center.data.astype(np.float64)))
    raw = decode_boxes(center_sig, size.data.astype(np.float64), cfg.width, cfg.height)[0]
    box = RoiBox(*raw).scaled(PREPARED_WIDTH / cfg.width, PREPARED_HEIGHT / cfg.height)
    confidence = float(1.0 / (1.0 + np.exp(-float(conf.data[0, 0]))))
    return box, confidence


def train_roi(
    model: nn.Model,
    dataset: Sequence[Tuple[GrayImage, RoiBox, bool]],
    settings: TrainSettings,
    seed: int = 0,
    log_fn=None,
) -> Tuple[nn.Model, List[float]]:
    """Fit the localizer on (image, box, is_true) triples at net size,
    the box in net-input pixels (``pipeline.roi_data`` makes them).

    Box regression (smooth L1 on the center/log-size parameters) trains
    on true samples only; confidence (cross-entropy) trains on every
    sample. Returns the model and the mean loss per epoch.
    """
    cfg = model.config
    n = len(dataset)
    images = nn.planes([img for img, _, _ in dataset], cfg)
    is_true = np.array([bool(flag) for _, _, flag in dataset], dtype=bool)
    centers_all = np.zeros((n, 2), dtype=np.float32)
    sizes_all = np.zeros((n, 2), dtype=np.float32)
    for i, (_, box, flag) in enumerate(dataset):
        if not flag:
            continue
        if not box.inside(cfg.width, cfg.height):
            raise ContractError(f"sample {i}: box {box.as_tuple()} lies outside its image")
        cx, cy = box.center
        centers_all[i] = (cx / cfg.width, cy / cfg.height)
        sizes_all[i] = (math.log(box.w / cfg.width), math.log(box.h / cfg.height))
    conf_all = is_true.astype(np.float32)[:, None]

    def batch_loss(idx: np.ndarray) -> Tensor:
        center, size, conf = rpn_forward(model, Tensor(images[idx]))
        total_loss = loss(sigmoid(conf), Tensor(conf_all[idx]), "bce")
        pos = np.flatnonzero(is_true[idx])
        if pos.size:
            l_center = loss(
                select_rows(sigmoid(center), pos), Tensor(centers_all[idx][pos]), "smooth_l1"
            )
            l_size = loss(select_rows(size, pos), Tensor(sizes_all[idx][pos]), "smooth_l1")
            total_loss = add(add(total_loss, l_center), l_size)
        return total_loss

    history = nn.fit(model.params, n, batch_loss, settings, seed, "roi", log_fn)
    return model, history
