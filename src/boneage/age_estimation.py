"""Bone-age estimation from a joint crop.

The reference atlas is a fixed table of twelve (sex, age) classes: six
ages per sex at twelve-month steps (120..180 months). The model is a
12-way classifier, one conv trunk and a softmax head that scores the
crop's similarity to each atlas class. The estimate is the expectation
of the class ages under the softmax, which also gives the similarity
ranking and the nearest class.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import nn
from .checkpoint import write_atomic
from .errors import ContractError
from .imaging import GrayImage
from .optim import TrainSettings
from .tensor import Tensor, dense, softmax_cross_entropy


def default_atlas_classes() -> List[Tuple[str, float]]:
    """The canonical class list: female then male, ages 120..180."""
    return [(sex, 120.0 + 12.0 * i) for sex in ("female", "male") for i in range(6)]


NUM_CLASSES = len(default_atlas_classes())


@dataclass(frozen=True)
class ReferenceAtlas:
    """The fixed (sex, age_months) class table; class i is row i."""

    classes: ClassVar[Tuple[Tuple[str, float], ...]] = tuple(default_atlas_classes())

    @property
    def min_age(self) -> float:
        return min(age for _, age in self.classes)

    @property
    def max_age(self) -> float:
        return max(age for _, age in self.classes)

    @property
    def age_step(self) -> float:
        return 12.0

    def class_of(self, sex: str, age_months: float) -> int:
        """Index of the class of this sex with the nearest age."""
        if sex not in ("female", "male"):
            raise ContractError(f"sex must be 'female' or 'male', got {sex!r}")
        best, best_d = -1, float("inf")
        for i, (class_sex, class_age) in enumerate(self.classes):
            if class_sex != sex:
                continue
            d = abs(class_age - age_months)
            if d < best_d:
                best, best_d = i, d
        return best


def _manifest_lines(atlas: ReferenceAtlas) -> List[str]:
    return [f"{class_id} {sex} {age:g}" for class_id, (sex, age) in enumerate(atlas.classes)]


def save_atlas(atlas: ReferenceAtlas, manifest_path) -> None:
    """Write the manifest: one `class_id sex age_months` line per class."""
    manifest_path = Path(manifest_path)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(manifest_path, ("\n".join(_manifest_lines(atlas)) + "\n").encode("ascii"))


@dataclass
class AgeEstimate:
    """Continuous age plus the similarity distribution over the atlas."""

    age_months: float
    class_scores: np.ndarray
    nearest_class: int

    def __post_init__(self):
        total = float(np.sum(self.class_scores))
        if abs(total - 1.0) > 1e-6:
            raise ContractError(f"class scores sum to {total}, not 1")
        if int(np.argmax(self.class_scores)) != self.nearest_class:
            raise ContractError("nearest_class must be the argmax of class_scores")


# ---------------------------------------------------------------------------
# the network
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgeConfig(nn.InputPlane):
    """Geometry of the age network."""

    input_size: Tuple[int, int] = (64, 64)
    backbone_channels: Tuple[int, ...] = (8, 16, 32)
    hidden: int = 64

    def __post_init__(self):
        nn.check_trunk_config(self.backbone_channels, self.input_size, self.hidden)


def build_age_model(config: AgeConfig = AgeConfig(), seed: Optional[int] = 0) -> nn.Model:
    """Initialize the age network's parameters; with ``seed``
    None they are zeros for ``restore_params`` to fill."""
    rng = nn.init_rng(seed)
    params: Dict[str, Tensor] = {}
    nn.init_vgg_trunk(params, rng, config.backbone_channels, config.input_size, config.hidden)
    nn.init_dense(params, rng, "head_class", config.hidden, NUM_CLASSES)
    return nn.Model(config, params)


def age_forward(model: nn.Model, x: Tensor) -> Tensor:
    """Run the net; returns the class logits (N, 12)."""
    cfg = model.config
    nn.check_input(x, cfg.width, cfg.height)
    p = model.params
    feats = nn.vgg_trunk(x, p, len(cfg.backbone_channels))
    return dense(feats, p["head_class.w"], p["head_class.b"])


def estimate_age(model: nn.Model, crop: GrayImage, atlas: ReferenceAtlas) -> AgeEstimate:
    """Estimate a continuous age in months for a joint crop.

    The age is the expectation of the atlas ages under the class head's
    softmax, sum_i p_i * age_i (DEX's deep expectation), so it lies in
    the atlas range; the scores and the nearest class come from the same
    softmax.
    """
    logits = age_forward(model, Tensor(nn.planes([crop], model.config)))
    z = logits.data[0].astype(np.float64)
    z -= z.max()
    e = np.exp(z)
    scores = e / e.sum()
    ages = np.array([age for _, age in atlas.classes])
    return AgeEstimate(
        age_months=float(scores @ ages),
        class_scores=scores,
        nearest_class=int(np.argmax(scores)),
    )


def train_age(
    model: nn.Model,
    dataset: Sequence[Tuple[GrayImage, int]],
    settings: TrainSettings,
    seed: int = 0,
    log_fn=None,
) -> Tuple[nn.Model, List[float]]:
    """Fit on (crop, class_index) pairs with class cross-entropy.

    Returns the model and the mean loss per epoch.
    """
    n = len(dataset)
    crops = nn.planes([crop for crop, _ in dataset], model.config)
    onehot = np.zeros((n, NUM_CLASSES), dtype=np.float32)
    for i, (_, class_index) in enumerate(dataset):
        if not 0 <= int(class_index) < NUM_CLASSES:
            raise ContractError(
                f"sample {i}: class index {class_index} outside [0, {NUM_CLASSES})"
            )
        onehot[i, int(class_index)] = 1.0

    def batch_loss(idx: np.ndarray) -> Tensor:
        logits = age_forward(model, Tensor(crops[idx]))
        return softmax_cross_entropy(logits, Tensor(onehot[idx]))

    history = nn.fit(model.params, n, batch_loss, settings, seed, "age", log_fn)
    return model, history
