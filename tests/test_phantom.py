"""Procedural phantom rendering: determinism, labels, and box tightness."""

import numpy as np
import pytest

from boneage.errors import ContractError
from boneage.phantom import (
    AGE_MAX_MONTHS,
    AGE_MIN_MONTHS,
    PhantomSpec,
    disc_radius,
    fusion_gap,
    generate_dataset,
    generate_phantom,
)

_BONE_RADIUS = 4.0  # female shaft radius; male is 1.25x


def _spec(seed=0, maturity=0.5, sex="female", noise=0.02, joint=True):
    return PhantomSpec(
        seed=seed, maturity=maturity, sex=sex, noise_level=noise, joint_present=joint
    )


# ---------------------------------------------------------------------------
# spec validation and the age formula
# ---------------------------------------------------------------------------


def test_spec_rejects_bad_inputs():
    with pytest.raises(ContractError):
        _spec(maturity=-0.01)
    with pytest.raises(ContractError):
        _spec(maturity=1.01)
    with pytest.raises(ContractError):
        _spec(sex="other")
    with pytest.raises(ContractError):
        _spec(noise=-0.1)
    with pytest.raises(ContractError):
        PhantomSpec(seed=0, maturity=0.5, sex="female", image_size=(16, 64))


def test_age_is_affine_in_maturity():
    assert _spec(maturity=0.0).age_months == AGE_MIN_MONTHS == 120.0
    assert _spec(maturity=1.0).age_months == AGE_MAX_MONTHS == 180.0
    assert _spec(maturity=0.5).age_months == 150.0
    assert _spec(maturity=0.25).age_months == 120.0 + 60.0 * 0.25


def test_growth_curves_are_monotone():
    ms = np.linspace(0.0, 1.0, 21)
    radii = [disc_radius(m) for m in ms]
    gaps = [fusion_gap(m) for m in ms]
    assert all(b > a for a, b in zip(radii, radii[1:]))
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert min(gaps) > 0.0  # the gap never fully closes


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_same_spec_renders_identical_sample():
    a = generate_phantom(_spec(seed=7))
    b = generate_phantom(_spec(seed=7))
    assert a.image.pixels.tobytes() == b.image.pixels.tobytes()
    assert a.bone_mask.pixels.tobytes() == b.bone_mask.pixels.tobytes()
    assert a.roi.as_tuple() == b.roi.as_tuple()


def test_different_seeds_render_different_images():
    a = generate_phantom(_spec(seed=7))
    b = generate_phantom(_spec(seed=8))
    assert a.image.pixels.tobytes() != b.image.pixels.tobytes()


def test_sample_carries_its_labels():
    s = generate_phantom(_spec(seed=3, maturity=0.75, sex="male"))
    assert s.age_months == 120.0 + 60.0 * 0.75
    assert s.sex == "male"
    assert s.is_true


def test_mask_is_binary_and_matches_bright_pixels_at_zero_noise():
    s = generate_phantom(_spec(seed=5, noise=0.0))
    mask = s.bone_mask.pixels
    assert set(np.unique(mask)) <= {0.0, 1.0}
    # bone and disc render brighter than skin/background, so at zero noise
    # the mask is exactly the bright region
    np.testing.assert_array_equal(mask, (s.image.pixels > 0.5).astype(np.float32))


def test_noise_keeps_pixels_in_unit_interval():
    s = generate_phantom(_spec(seed=11, noise=0.3))
    assert s.image.pixels.min() >= 0.0 and s.image.pixels.max() <= 1.0


@pytest.mark.parametrize("seed", range(25))
@pytest.mark.parametrize("sex", ["female", "male"])
def test_box_tightly_bounds_joint_region(seed, sex):
    maturity = (seed % 5) / 4.0
    s = generate_phantom(_spec(seed=seed, maturity=maturity, sex=sex, noise=0.0))
    # locate the joint from the pixels: the disc is the brightest structure
    disc = s.image.pixels >= 0.9
    assert disc.any()
    ys, xs = np.nonzero(disc)
    jx = xs.mean()
    # the joint region is the rendered bone within the proximal tip span
    r_bone = _BONE_RADIUS * (1.25 if sex == "male" else 1.0)
    span = disc_radius(maturity) + fusion_gap(maturity) + r_bone
    gx = np.arange(s.image.width, dtype=np.float64)
    in_span = (s.bone_mask.pixels > 0.5) & (np.abs(gx[None, :] - jx) <= span + 1.0)
    ys, xs = np.nonzero(in_span)
    x0, x1 = xs.min(), xs.max() + 1
    y0, y1 = ys.min(), ys.max() + 1
    box = s.roi
    assert abs(box.x - x0) <= 2.0
    assert abs(box.y - y0) <= 2.0
    assert abs(box.x2 - x1) <= 2.0
    assert abs(box.y2 - y1) <= 2.0


@pytest.mark.parametrize("joint", [True, False])
def test_box_is_valid_and_inside_the_frame(joint):
    for seed in range(10):
        s = generate_phantom(_spec(seed=seed, joint=joint))
        b = s.roi
        assert b.w > 0 and b.h > 0
        assert b.x >= 0 and b.y >= 0
        assert b.x2 <= s.image.width and b.y2 <= s.image.height


def test_negative_has_no_disc():
    s = generate_phantom(_spec(seed=4, joint=False, noise=0.0))
    assert not s.is_true
    assert s.image.pixels.max() < 0.9
    assert s.bone_mask.pixels.sum() > 0  # shafts still render bone


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------


def test_dataset_validation():
    with pytest.raises(ContractError):
        generate_dataset(0)
    with pytest.raises(ContractError):
        generate_dataset(5, negative_fraction=1.0)
    with pytest.raises(ContractError):
        generate_dataset(5, negative_fraction=-0.1)


def test_dataset_is_reproducible():
    a = generate_dataset(8, seed=42)
    b = generate_dataset(8, seed=42)
    for sa, sb in zip(a, b):
        assert sa.image.pixels.tobytes() == sb.image.pixels.tobytes()
        assert sa.age_months == sb.age_months


@pytest.mark.parametrize(
    "count,fraction,expected",
    [(10, 0.25, 2), (10, 0.2, 2), (7, 0.2, 1), (9, 0.5, 4), (5, 0.0, 0)],
)
def test_negative_count_is_floor_of_fraction(count, fraction, expected):
    samples = generate_dataset(count, seed=1, negative_fraction=fraction)
    assert sum(not s.is_true for s in samples) == expected


def test_sexes_alternate():
    samples = generate_dataset(6, seed=2)
    assert [s.sex for s in samples] == ["female", "male"] * 3


def test_maturities_are_stratified_over_the_range():
    samples = generate_dataset(10, seed=4)
    ages = [s.age_months for s in samples]
    assert all(120.0 <= a <= 180.0 for a in ages)
    # stratification: ages come out sorted because each sample draws from
    # its own stratum
    assert ages == sorted(ages)


def test_disjoint_master_seeds_share_no_samples():
    a = generate_dataset(100, seed=0)
    b = generate_dataset(100, seed=1)
    bytes_a = {s.image.pixels.tobytes() for s in a}
    bytes_b = {s.image.pixels.tobytes() for s in b}
    assert not (bytes_a & bytes_b)


def test_custom_image_size_flows_through():
    samples = generate_dataset(2, seed=5, image_size=(48, 40))
    for s in samples:
        assert (s.image.width, s.image.height) == (48, 40)
        assert (s.bone_mask.width, s.bone_mask.height) == (48, 40)
