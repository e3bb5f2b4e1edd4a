"""Deterministic dataset expansion for small radiograph collections.

Each reference image expands over a fixed grid of shifts, one extra
rotation, and a horizontal flip. The default grid is 4 x-shifts times
3 y-shifts times 2 rotations times 2 flips = 48 variants per
reference, so twelve references become 576 labeled images. Transforms
apply in a fixed order (shift, then rotate, then flip) and variants
enumerate in lexicographic order of (dx, dy, rotation, flip), so the
expansion is reproducible down to the byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .errors import ContractError
from .imaging import GrayImage, flip_horizontal, rotate, shift_crop

Provenance = Tuple[str, int, int, float, bool]


@dataclass(frozen=True)
class AugmentationSpec:
    """Grid of transform parameters applied to each reference image."""

    shift_stride: int = 10
    shift_counts_x: int = 4
    shift_counts_y: int = 3
    rotations: Tuple[float, ...] = (0.0, 15.0)
    flips: Tuple[bool, ...] = (False, True)

    def __post_init__(self):
        if self.shift_stride <= 0:
            raise ContractError(f"shift_stride must be > 0, got {self.shift_stride}")
        if self.shift_counts_x < 1 or self.shift_counts_y < 1:
            raise ContractError("shift counts must be >= 1")
        if not self.rotations:
            raise ContractError("rotation set is empty")
        if not self.flips:
            raise ContractError("flip set is empty")
        if not all(math.isfinite(rot) for rot in self.rotations):
            raise ContractError(f"rotations must be finite, got {self.rotations}")
        # a variant's id names its rotation by {:g}; two alike write one file twice
        names = [f"r{rot:g}" for rot in self.rotations]
        if len(set(names)) < len(names):
            raise ContractError(f"rotations {self.rotations} repeat a variant id ({', '.join(names)})")
        if len(set(self.flips)) < len(self.flips):
            raise ContractError(f"flips repeat: {self.flips}")

    @property
    def shifts_x(self) -> Tuple[int, ...]:
        return tuple(self.shift_stride * i for i in range(self.shift_counts_x))

    @property
    def shifts_y(self) -> Tuple[int, ...]:
        return tuple(self.shift_stride * i for i in range(self.shift_counts_y))


@dataclass
class LabeledImage:
    """An image with its age/sex labels and where it came from.

    ``provenance`` is (reference_id, dx, dy, rotation_degrees, flipped)
    and uniquely identifies a variant within a dataset.
    """

    image: GrayImage
    age_months: float
    sex: str
    provenance: Provenance

    def __post_init__(self):
        if self.age_months <= 0:
            raise ContractError(f"age_months must be positive, got {self.age_months}")
        if self.sex not in ("female", "male"):
            raise ContractError(f"sex must be 'female' or 'male', got {self.sex!r}")

    @classmethod
    def reference(cls, image: GrayImage, age_months: float, sex: str, ref_id: str) -> "LabeledImage":
        return cls(image=image, age_months=age_months, sex=sex,
                   provenance=(ref_id, 0, 0, 0.0, False))

    @property
    def ref_id(self) -> str:
        return self.provenance[0]

    def provenance_str(self) -> str:
        ref, dx, dy, rot, flip = self.provenance
        return f"{ref}_dx{dx}_dy{dy}_r{rot:g}_f{int(flip)}"


def enumerate_variants(ref: LabeledImage, spec: AugmentationSpec) -> List[LabeledImage]:
    """Expand one reference over the grid; lexicographic in (dx, dy, rot, flip)."""
    if max(spec.shifts_x) >= ref.image.width or max(spec.shifts_y) >= ref.image.height:
        raise ContractError(
            f"shift grid exceeds {ref.image.width}x{ref.image.height} image bounds"
        )
    out = []
    for dx in spec.shifts_x:
        for dy in spec.shifts_y:
            shifted = shift_crop(ref.image, dx, dy)
            for rot in spec.rotations:
                rotated = rotate(shifted, rot) if rot != 0.0 else shifted
                for flip in spec.flips:
                    img = flip_horizontal(rotated) if flip else rotated
                    out.append(
                        LabeledImage(
                            image=img,
                            age_months=ref.age_months,
                            sex=ref.sex,
                            provenance=(ref.ref_id, dx, dy, rot, flip),
                        )
                    )
    return out


def augment_dataset(
    refs: Sequence[LabeledImage], spec: AugmentationSpec = AugmentationSpec()
) -> List[LabeledImage]:
    """Concatenate per-reference expansions, preserving reference order."""
    if not refs:
        raise ContractError("augmentation needs at least one reference image")
    seen = set()
    for ref in refs:
        if ref.ref_id in seen:
            raise ContractError(f"duplicate reference id {ref.ref_id!r}")
        seen.add(ref.ref_id)
    out: List[LabeledImage] = []
    for ref in refs:
        out.extend(enumerate_variants(ref, spec))
    return out
