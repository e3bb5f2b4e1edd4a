"""Bone-age estimation from a joint crop.

The reference atlas is a fixed table of twelve (sex, age) classes: six
ages per sex at twelve-month steps (120..180 months). The model is a
12-way classifier, the VGG-style net of ``nn`` with one softmax head
that scores the crop's similarity to each atlas class. It trains toward
an ordinal label distribution over the crop's own sex's classes, not a
one-hot row, so a near miss costs less than a far one. The estimate is
the expectation of the class ages under the softmax, which also gives
the similarity ranking and the nearest class.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar, List, Optional, Sequence, Tuple

import numpy as np

from . import nn
from .checkpoint import write_atomic
from .errors import ContractError
from .imaging import GrayImage
from .optim import TrainSettings
from .tensor import Tensor, softmax_cross_entropy


TARGET_SIGMA = 8.0  # months; the spread of the training target around the true age


@dataclass(frozen=True)
class ReferenceAtlas:
    """The fixed (sex, age_months) class table; class i is row i: female
    then male, ages 120..180."""

    classes: ClassVar[Tuple[Tuple[str, float], ...]] = tuple(
        (sex, 120.0 + 12.0 * i) for sex in ("female", "male") for i in range(6)
    )

    @property
    def min_age(self) -> float:
        return min(age for _, age in self.classes)

    @property
    def max_age(self) -> float:
        return max(age for _, age in self.classes)

    @property
    def age_step(self) -> float:
        return 12.0

    def target(self, sex: str, age_months: float) -> np.ndarray:
        """The (12,) float32 class distribution a crop of this sex and age
        trains toward: Gaussian mass of sigma TARGET_SIGMA months around
        the age over the same-sex class ages, normalised, and zero on the
        other sex's (DLDL, Gao et al. 2017)."""
        if sex not in ("female", "male"):
            raise ContractError(f"sex must be 'female' or 'male', got {sex!r}")
        if not np.isfinite(age_months):
            raise ContractError(f"age must be finite, got {age_months!r}")
        z = np.array([(age - age_months) / TARGET_SIGMA if s == sex else np.inf for s, age in self.classes])
        row = np.exp(-0.5 * z * z)
        return (row / row.sum()).astype(np.float32)


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


# ---------------------------------------------------------------------------
# the network
# ---------------------------------------------------------------------------

NUM_CLASSES = len(ReferenceAtlas.classes)
AGE_HEADS = {"head_class": NUM_CLASSES}


def build_age_model(config: nn.VggConfig, seed: Optional[int] = 0) -> nn.Model:
    """Initialize the age network, the VGG net with ``AGE_HEADS``; with
    ``seed`` None its parameters are zeros for ``restore_params``."""
    return nn.build_vgg(config, AGE_HEADS, seed)


def age_forward(model: nn.Model, x: Tensor) -> Tensor:
    """Run the net; returns the class logits (N, 12)."""
    return nn.vgg_forward(model, x, AGE_HEADS)[0]


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
    dataset: Sequence[Tuple[GrayImage, str, float]],
    settings: TrainSettings,
    seed: int = 0,
    log_fn=None,
) -> Tuple[nn.Model, List[float]]:
    """Fit on (crop, sex, age_months) triples with cross-entropy against
    ``ReferenceAtlas.target`` of each sex and age.

    Returns the model and the mean loss per epoch.
    """
    crops = nn.planes([crop for crop, _, _ in dataset], model.config)
    atlas = ReferenceAtlas()
    targets = np.empty((len(dataset), NUM_CLASSES), dtype=np.float32)
    for i, (_, sex, age) in enumerate(dataset):
        try:
            targets[i] = atlas.target(sex, age)
        except ContractError as exc:
            raise ContractError(f"sample {i}: {exc}") from None

    def batch_loss(idx: np.ndarray) -> Tensor:
        logits = age_forward(model, Tensor(crops[idx]))
        return softmax_cross_entropy(logits, Tensor(targets[idx]))

    history = nn.fit(model.params, len(dataset), batch_loss, settings, seed, "age", log_fn)
    return model, history
