"""Deterministic grid expansion of reference images."""

import numpy as np
import pytest

from boneage.augmentation import (
    AugmentationSpec,
    LabeledImage,
    augment_dataset,
    enumerate_variants,
)
from boneage.errors import ContractError
from boneage.imaging import GrayImage, flip_horizontal, rotate, shift_crop


def _ref(rng, ref_id="r0", h=40, w=40, age=132.0, sex="female"):
    img = GrayImage(rng.random((h, w), dtype=np.float32))
    return LabeledImage.reference(img, age, sex, ref_id)


def test_default_spec_grid():
    spec = AugmentationSpec()
    assert spec.shifts_x == (0, 10, 20, 30)
    assert spec.shifts_y == (0, 10, 20)
    assert spec.rotations == (0.0, 15.0)
    assert spec.flips == (False, True)
    assert len(enumerate_variants(_ref(np.random.default_rng(0)), spec)) == 48


def test_spec_validation():
    with pytest.raises(ContractError):
        AugmentationSpec(shift_stride=0)
    with pytest.raises(ContractError):
        AugmentationSpec(shift_counts_x=0)
    with pytest.raises(ContractError):
        AugmentationSpec(rotations=())
    with pytest.raises(ContractError):
        AugmentationSpec(flips=())
    # every variant needs its own id, and a rotation must be a number
    for rotations in [(0.0, 15.0, 15.0), (15.0, 15.0000001), (0.0, float("nan")), (float("inf"),)]:
        with pytest.raises(ContractError):
            AugmentationSpec(rotations=rotations)
    with pytest.raises(ContractError):
        AugmentationSpec(flips=(True, True))


def test_labeled_image_validation():
    img = GrayImage(np.zeros((4, 4), dtype=np.float32))
    with pytest.raises(ContractError):
        LabeledImage.reference(img, 0.0, "female", "x")
    with pytest.raises(ContractError):
        LabeledImage.reference(img, 100.0, "unknown", "x")


def test_variant_count_per_reference():
    rng = np.random.default_rng(0)
    out = enumerate_variants(_ref(rng), AugmentationSpec())
    assert len(out) == 48


def test_twelve_references_give_576():
    rng = np.random.default_rng(1)
    refs = [_ref(rng, ref_id=f"r{i:02d}", age=120.0 + 12 * (i % 6)) for i in range(12)]
    out = augment_dataset(refs)
    assert len(out) == 576


def test_provenance_tuples_are_distinct():
    rng = np.random.default_rng(2)
    refs = [_ref(rng, ref_id=f"r{i:02d}") for i in range(12)]
    out = augment_dataset(refs)
    assert len({v.provenance for v in out}) == len(out) == 576


def test_expansion_is_byte_identical_across_runs():
    rng = np.random.default_rng(3)
    base = _ref(rng)
    a = enumerate_variants(base, AugmentationSpec())
    b = enumerate_variants(base, AugmentationSpec())
    assert [v.provenance for v in a] == [v.provenance for v in b]
    for va, vb in zip(a, b):
        assert va.image.pixels.tobytes() == vb.image.pixels.tobytes()


def test_labels_copied_from_reference():
    rng = np.random.default_rng(4)
    ref = _ref(rng, age=156.0, sex="male")
    for v in enumerate_variants(ref, AugmentationSpec()):
        assert v.age_months == 156.0
        assert v.sex == "male"
        assert v.ref_id == "r0"


def test_enumeration_order_is_lexicographic():
    rng = np.random.default_rng(5)
    out = enumerate_variants(_ref(rng), AugmentationSpec())
    keys = [(dx, dy, rot, flip) for (_, dx, dy, rot, flip) in (v.provenance for v in out)]
    assert keys == sorted(keys)
    assert keys[0] == (0, 0, 0.0, False)
    assert keys[1] == (0, 0, 0.0, True)
    assert keys[2] == (0, 0, 15.0, False)
    assert keys[-1] == (30, 20, 15.0, True)


def test_variants_match_hand_applied_transforms():
    rng = np.random.default_rng(6)
    ref = _ref(rng)
    by_prov = {v.provenance[1:]: v for v in enumerate_variants(ref, AugmentationSpec())}
    for key in [(0, 0, 0.0, False), (20, 10, 0.0, True), (10, 20, 15.0, False), (30, 0, 15.0, True)]:
        dx, dy, rot, flip = key
        want = shift_crop(ref.image, dx, dy)
        if rot:
            want = rotate(want, rot)
        if flip:
            want = flip_horizontal(want)
        np.testing.assert_array_equal(by_prov[key].image.pixels, want.pixels)


def test_identity_spec_returns_the_input_image():
    rng = np.random.default_rng(7)
    ref = _ref(rng)
    spec = AugmentationSpec(shift_counts_x=1, shift_counts_y=1, rotations=(0.0,), flips=(False,))
    out = enumerate_variants(ref, spec)
    assert len(out) == 1
    np.testing.assert_array_equal(out[0].image.pixels, ref.image.pixels)


def test_shift_grid_must_fit_the_image():
    rng = np.random.default_rng(8)
    small = _ref(rng, h=25, w=25)  # max shift 30 >= width 25
    with pytest.raises(ContractError, match="bounds"):
        enumerate_variants(small, AugmentationSpec())


def test_duplicate_reference_ids_rejected():
    rng = np.random.default_rng(9)
    refs = [_ref(rng, ref_id="same"), _ref(rng, ref_id="same")]
    with pytest.raises(ContractError, match="duplicate"):
        augment_dataset(refs)


def test_empty_reference_list_rejected():
    with pytest.raises(ContractError):
        augment_dataset([])


def test_reference_order_preserved_in_output():
    rng = np.random.default_rng(10)
    refs = [_ref(rng, ref_id=f"z{i}") for i in range(3)]
    out = augment_dataset(refs, AugmentationSpec())
    assert [v.ref_id for v in out] == ["z0"] * 48 + ["z1"] * 48 + ["z2"] * 48
