"""Procedural elbow phantoms: synthetic radiographs with known labels.

A positive phantom renders two bright bone shafts meeting at a joint,
with an ossification disc in the joint space. Skeletal maturity drives
the geometry: the disc radius grows and the fusion gap between disc and
proximal shaft shrinks as maturity rises from 0 to 1, and sex scales
shaft thickness. Every sample carries the exact bone mask, joint box,
age, and sex used to render it, so the downstream models can be
trained and scored without manual annotation.

When ``joint_present`` is false the render is two disjoint parallel
shafts with no joint structure, for training the "is this a usable
radiograph" confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ContractError
from .imaging import GrayImage
from .roi import RoiBox

AGE_MIN_MONTHS = 120.0
AGE_MAX_MONTHS = 180.0

# render intensities, dark background to bright ossified disc
_BG = 0.03
_SKIN = 0.35
_BONE = 0.80
_DISC = 0.95

_BONE_RADIUS = 4.0
_MALE_THICKNESS = 1.25
_SKIN_MARGIN = 6.0
_JOINT_JITTER = 5.0


@dataclass(frozen=True)
class PhantomSpec:
    """Everything that determines one rendered sample."""

    seed: int
    maturity: float
    sex: str
    image_size: Tuple[int, int] = (96, 64)
    noise_level: float = 0.02
    joint_present: bool = True

    def __post_init__(self):
        if not 0.0 <= self.maturity <= 1.0:
            raise ContractError(f"maturity must be in [0, 1], got {self.maturity}")
        if self.sex not in ("female", "male"):
            raise ContractError(f"sex must be 'female' or 'male', got {self.sex!r}")
        w, h = self.image_size
        if w < 32 or h < 32:
            raise ContractError(f"phantom canvas too small: {w}x{h}")
        if not 0 <= self.noise_level < math.inf:
            raise ContractError(f"noise_level must be finite and >= 0, got {self.noise_level}")

    @property
    def age_months(self) -> float:
        return AGE_MIN_MONTHS + (AGE_MAX_MONTHS - AGE_MIN_MONTHS) * self.maturity


@dataclass
class PhantomSample:
    """One rendered phantom with its ground truth."""

    image: GrayImage
    bone_mask: GrayImage
    roi: RoiBox
    age_months: float
    sex: str
    is_true: bool


def disc_radius(maturity: float) -> float:
    """Ossification disc radius in pixels; grows with maturity."""
    return 3.0 + 5.0 * maturity


def fusion_gap(maturity: float) -> float:
    """Gap between disc edge and proximal shaft tip; shrinks with maturity."""
    return 6.0 - 5.0 * maturity


def _segment_distance(gx, gy, start, end):
    """Distance from every grid point to the segment start-end."""
    sx, sy = start
    ex, ey = end
    vx, vy = ex - sx, ey - sy
    norm2 = vx * vx + vy * vy
    t = np.clip(((gx - sx) * vx + (gy - sy) * vy) / norm2, 0.0, 1.0)
    return np.hypot(gx - (sx + t * vx), gy - (sy + t * vy))


def generate_phantom(spec: PhantomSpec) -> PhantomSample:
    """Render one phantom; the same spec always renders the same sample."""
    rng = np.random.default_rng(spec.seed)
    w, h = spec.image_size
    gx, gy = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    r_bone = _BONE_RADIUS * (_MALE_THICKNESS if spec.sex == "male" else 1.0)

    if spec.joint_present:
        img, mask, box = _render_joint(spec, rng, gx, gy, r_bone)
    else:
        img, mask, box = _render_negative(spec, rng, gx, gy, r_bone)

    if spec.noise_level > 0:
        img = img + rng.normal(0.0, spec.noise_level, size=img.shape)
    img = np.clip(img, 0.0, 1.0)

    return PhantomSample(
        image=GrayImage(img.astype(np.float32)),
        bone_mask=GrayImage(mask.astype(np.float32)),
        roi=box,
        age_months=spec.age_months,
        sex=spec.sex,
        is_true=spec.joint_present,
    )


def _render_joint(spec, rng, gx, gy, r_bone):
    w, h = spec.image_size
    r_disc = disc_radius(spec.maturity)
    gap = fusion_gap(spec.maturity)

    jx = w / 2.0 + rng.uniform(-_JOINT_JITTER, _JOINT_JITTER)
    jy = h / 2.0 + rng.uniform(-_JOINT_JITTER, _JOINT_JITTER)

    # proximal shaft comes in from the left, distal shaft exits right,
    # each with its own slope so the joint shows a bend
    ang_a = math.radians(180.0 + rng.uniform(-25.0, 25.0))
    ang_b = math.radians(rng.uniform(-25.0, 25.0))
    reach = math.hypot(w, h)

    ua = (math.cos(ang_a), math.sin(ang_a))
    ub = (math.cos(ang_b), math.sin(ang_b))
    # shaft A's capsule surface stops an edge-to-edge fusion gap short
    # of the disc boundary
    tip_a = r_disc + gap + r_bone
    end_a = (jx + tip_a * ua[0], jy + tip_a * ua[1])
    start_a = (jx + reach * ua[0], jy + reach * ua[1])
    start_b = (jx + (r_disc + 2.0) * ub[0], jy + (r_disc + 2.0) * ub[1])
    end_b = (jx + reach * ub[0], jy + reach * ub[1])

    d_a = _segment_distance(gx, gy, start_a, end_a)
    d_b = _segment_distance(gx, gy, start_b, end_b)
    d_disc = np.hypot(gx - jx, gy - jy)

    img = np.full((h, w), _BG, dtype=np.float64)
    skin = (
        (d_a < r_bone + _SKIN_MARGIN)
        | (d_b < r_bone + _SKIN_MARGIN)
        | (d_disc < r_disc + _SKIN_MARGIN)
    )
    img[skin] = _SKIN
    bone = (d_a < r_bone) | (d_b < r_bone)
    img[bone] = _BONE
    disc = d_disc < r_disc
    img[disc] = _DISC

    mask = (bone | disc).astype(np.float64)

    # the joint region: disc, fusion gap, and both shaft junctions. Its
    # horizontal reach is the proximal tip span; the box is the rendered
    # structure's bounding box inside that span, padded one pixel.
    span = r_disc + gap + r_bone
    in_span = mask.astype(bool) & (np.abs(gx - jx) <= span)
    ys, xs = np.nonzero(in_span)
    box = _clamped_box(
        float(xs.min()) - 1.0,
        float(ys.min()) - 1.0,
        float(xs.max() - xs.min()) + 3.0,
        float(ys.max() - ys.min()) + 3.0,
        w,
        h,
    )
    return img, mask, box


def _render_negative(spec, rng, gx, gy, r_bone):
    w, h = spec.image_size
    y_top = h / 3.0 + rng.uniform(-2.0, 2.0)
    y_bot = 2.0 * h / 3.0 + rng.uniform(-2.0, 2.0)
    d_top = _segment_distance(gx, gy, (0.0, y_top), (float(w), y_top))
    d_bot = _segment_distance(gx, gy, (0.0, y_bot), (float(w), y_bot))

    img = np.full((h, w), _BG, dtype=np.float64)
    skin = (d_top < r_bone + _SKIN_MARGIN) | (d_bot < r_bone + _SKIN_MARGIN)
    img[skin] = _SKIN
    bone = (d_top < r_bone) | (d_bot < r_bone)
    img[bone] = _BONE

    mask = bone.astype(np.float64)
    # no joint exists; carry a centered placeholder so the field is total
    side = min(w, h) / 4.0
    box = _clamped_box(w / 2.0 - side, h / 2.0 - side, 2 * side, 2 * side, w, h)
    return img, mask, box


def _clamped_box(x, y, bw, bh, w, h) -> RoiBox:
    x0 = max(0.0, x)
    y0 = max(0.0, y)
    x1 = min(float(w), x + bw)
    y1 = min(float(h), y + bh)
    return RoiBox(x=x0, y=y0, w=x1 - x0, h=y1 - y0)


def generate_dataset(
    count: int,
    seed: int = 0,
    negative_fraction: float = 0.0,
    image_size: Tuple[int, int] = (96, 64),
    noise_level: float = 0.02,
) -> List[PhantomSample]:
    """Render a reproducible list of phantoms.

    Maturities are stratified uniformly over [0, 1) (one per
    equal-width stratum, jittered inside it), sexes alternate, and
    floor(count * negative_fraction) samples spread evenly through the
    list render without a joint.
    """
    if count < 1:
        raise ContractError(f"dataset size must be >= 1, got {count}")
    if not 0.0 <= negative_fraction < 1.0:
        raise ContractError(f"negative_fraction must be in [0, 1), got {negative_fraction}")
    master = np.random.default_rng(seed)
    n_neg = int(math.floor(count * negative_fraction))
    neg_stride = count / n_neg if n_neg else 0.0
    neg_indices = {int(i * neg_stride) for i in range(n_neg)}
    samples = []
    for idx in range(count):
        sample_seed = int(master.integers(0, 2**31 - 1))
        jitter = float(master.uniform(0.0, 1.0))
        samples.append(
            generate_phantom(
                PhantomSpec(
                    seed=sample_seed,
                    maturity=(idx + jitter) / count,
                    sex="female" if idx % 2 == 0 else "male",
                    image_size=image_size,
                    noise_level=noise_level,
                    joint_present=idx not in neg_indices,
                )
            )
        )
    return samples
