"""Bone-age estimation from a joint crop.

A reference atlas holds twelve exemplar crops — six ages per sex at
twelve-month steps (default 120..180 months). The model is one conv
trunk with two heads sharing its feature vector: a 12-way softmax that
scores similarity of the crop to each atlas class, and a regression
head that emits a continuous age. The regressed age is the estimate;
the class scores carry the similarity ranking and the nearest class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import nn
from .errors import ConfigError, ContractError, DimensionError, ImageIOError, TrainingError
from .imaging import GrayImage, load_image, save_image
from .optim import OptimizerConfig
from .tensor import Tensor, add, dense, loss, softmax_cross_entropy

AGE_NORM = 180.0


@dataclass
class AtlasEntry:
    sex: str
    age_months: float
    image: GrayImage


@dataclass
class ReferenceAtlas:
    """Twelve exemplar crops: six ages per sex at uniform 12-month steps."""

    entries: List[AtlasEntry]

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if len(self.entries) != 12:
            raise ContractError(f"atlas needs exactly 12 entries, got {len(self.entries)}")
        pairs = [(e.sex, float(e.age_months)) for e in self.entries]
        if len(set(pairs)) != len(pairs):
            raise ContractError("atlas (sex, age) pairs must be unique")
        for sex in ("female", "male"):
            ages = sorted(a for s, a in pairs if s == sex)
            if len(ages) != 6:
                raise ContractError(f"atlas needs 6 ages for sex {sex!r}, got {len(ages)}")
            steps = {round(b - a, 6) for a, b in zip(ages, ages[1:])}
            if steps != {12.0}:
                raise ContractError(f"atlas ages for {sex!r} must step by 12 months, got {ages}")
            if min(ages) <= 0:
                raise ContractError("atlas ages must be positive")

    @property
    def ages(self) -> List[float]:
        return [float(e.age_months) for e in self.entries]

    @property
    def min_age(self) -> float:
        return min(self.ages)

    @property
    def max_age(self) -> float:
        return max(self.ages)

    @property
    def age_step(self) -> float:
        return 12.0

    def class_of(self, sex: str, age_months: float) -> int:
        """Index of the atlas entry of this sex with the nearest age."""
        if sex not in ("female", "male"):
            raise ContractError(f"sex must be 'female' or 'male', got {sex!r}")
        best, best_d = -1, float("inf")
        for i, e in enumerate(self.entries):
            if e.sex != sex:
                continue
            d = abs(float(e.age_months) - age_months)
            if d < best_d:
                best, best_d = i, d
        return best


def default_atlas_classes() -> List[Tuple[str, float]]:
    """The canonical class list: female then male, ages 120..180."""
    return [(sex, 120.0 + 12.0 * i) for sex in ("female", "male") for i in range(6)]


def save_atlas(atlas: ReferenceAtlas, manifest_path) -> None:
    """Write the manifest plus one PGM crop per class next to it.

    Manifest lines are `class_id sex age_months image_path`, paths
    relative to the manifest's directory.
    """
    manifest_path = Path(manifest_path)
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    lines = []
    for class_id, entry in enumerate(atlas.entries):
        name = f"atlas_class_{class_id:02d}.pgm"
        save_image(entry.image, manifest_path.parent / name)
        lines.append(f"{class_id} {entry.sex} {entry.age_months:g} {name}")
    manifest_path.write_text("\n".join(lines) + "\n", encoding="ascii")


def load_atlas(manifest_path) -> ReferenceAtlas:
    """Read a manifest written by save_atlas."""
    manifest_path = Path(manifest_path)
    try:
        text = manifest_path.read_text(encoding="ascii")
    except OSError as exc:
        raise ImageIOError(f"cannot read atlas manifest {manifest_path}: {exc}") from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ContractError(
                f"{manifest_path}:{lineno}: expected 'class_id sex age_months image_path'"
            )
        try:
            rows.append((int(parts[0]), parts[1], float(parts[2]), parts[3]))
        except ValueError:
            raise ContractError(f"{manifest_path}:{lineno}: malformed atlas line") from None
    rows.sort(key=lambda r: r[0])
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ContractError(f"{manifest_path}: class ids must be 0..{len(rows) - 1}")
    entries = [
        AtlasEntry(sex=sex, age_months=age, image=load_image(manifest_path.parent / rel))
        for _, sex, age, rel in rows
    ]
    return ReferenceAtlas(entries=entries)


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
    num_classes: int = 12

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        nn.check_trunk_config(self.backbone_channels, self.input_size, self.hidden)


@dataclass
class AgeModel:
    config: AgeConfig
    params: Dict[str, Tensor] = field(default_factory=dict)


def build_age_model(config: AgeConfig = AgeConfig(), seed: int = 0) -> AgeModel:
    """Initialize the age network's parameters."""
    rng = np.random.default_rng(seed)
    params: Dict[str, Tensor] = {}
    nn.init_vgg_trunk(params, rng, config.backbone_channels, config.input_size, config.hidden)
    nn.init_dense(params, rng, "head_class", config.hidden, config.num_classes)
    nn.init_dense(params, rng, "head_reg", config.hidden, 1)
    return AgeModel(config=config, params=params)


def age_forward(model: AgeModel, x: Tensor) -> Tuple[Tensor, Tensor]:
    """Run the net; returns (class_logits (N, 12), age_norm (N, 1)).

    Both heads consume the same feature vector.
    """
    cfg = model.config
    nn.check_input(x, cfg.width, cfg.height)
    p = model.params
    feats = nn.vgg_trunk(x, p, len(cfg.backbone_channels))
    class_logits = dense(feats, p["head_class.w"], p["head_class.b"])
    age_norm = dense(feats, p["head_reg.w"], p["head_reg.b"])
    return class_logits, age_norm


def _crop_input(model: AgeModel, crop: GrayImage) -> Tensor:
    cfg = model.config
    if (crop.width, crop.height) != cfg.input_size:
        raise DimensionError(
            f"crop must be {cfg.width}x{cfg.height}, got {crop.width}x{crop.height}"
        )
    return Tensor(crop.pixels[None, None, :, :])


def estimate_age(model: AgeModel, crop: GrayImage, atlas: ReferenceAtlas) -> AgeEstimate:
    """Estimate a continuous age in months for a joint crop.

    The regression head's output (in units of 180 months) is clamped
    to one atlas step beyond the atlas range; the similarity scores
    and nearest class come from the classification head.
    """
    atlas.validate()
    if len(atlas.entries) != model.config.num_classes:
        raise ContractError(
            f"atlas has {len(atlas.entries)} classes but model expects "
            f"{model.config.num_classes}"
        )
    logits, age_norm = age_forward(model, _crop_input(model, crop))
    z = logits.data[0].astype(np.float64)
    z -= z.max()
    e = np.exp(z)
    scores = e / e.sum()
    raw_months = float(age_norm.data[0, 0]) * AGE_NORM
    lo = atlas.min_age - atlas.age_step
    hi = atlas.max_age + atlas.age_step
    return AgeEstimate(
        age_months=float(np.clip(raw_months, lo, hi)),
        class_scores=scores,
        nearest_class=int(np.argmax(scores)),
    )


def train_age(
    model: AgeModel,
    dataset: Sequence[Tuple[GrayImage, float, int]],
    epochs: int = 60,
    optimizer: Optional[OptimizerConfig] = None,
    seed: int = 0,
    log_fn=None,
) -> Tuple[AgeModel, List[float]]:
    """Fit on (crop, age_months, class_index) triples.

    The loss is class cross-entropy plus the squared error of the
    regression head against age/180. Returns the model and the mean
    loss per epoch.
    """
    cfg = model.config
    if not dataset:
        raise TrainingError("age training needs at least one sample")
    optimizer = optimizer or OptimizerConfig(kind="adaptive", learning_rate=2e-3, batch_size=8)

    n = len(dataset)
    crops = np.empty((n, 1, cfg.height, cfg.width), dtype=np.float32)
    onehot = np.zeros((n, cfg.num_classes), dtype=np.float32)
    ages = np.empty((n, 1), dtype=np.float32)
    for i, (crop, age_months, class_index) in enumerate(dataset):
        if (crop.width, crop.height) != cfg.input_size:
            raise DimensionError(
                f"sample {i}: crop must be {cfg.width}x{cfg.height}, "
                f"got {crop.width}x{crop.height}"
            )
        if not 0 <= int(class_index) < cfg.num_classes:
            raise ContractError(
                f"sample {i}: class index {class_index} outside [0, {cfg.num_classes})"
            )
        if age_months <= 0:
            raise ContractError(f"sample {i}: age_months must be positive, got {age_months}")
        crops[i, 0] = crop.pixels
        onehot[i, int(class_index)] = 1.0
        ages[i, 0] = age_months / AGE_NORM

    def batch_loss(idx: np.ndarray) -> Tensor:
        class_logits, age_norm = age_forward(model, Tensor(crops[idx]))
        ce = softmax_cross_entropy(class_logits, Tensor(onehot[idx]))
        return add(ce, loss(age_norm, Tensor(ages[idx]), "mse"))

    history = nn.fit(model.params, n, batch_loss, optimizer, epochs, seed, "age", log_fn)
    return model, history
