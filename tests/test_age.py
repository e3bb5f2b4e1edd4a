"""Reference atlas handling and the atlas-class age network."""

import numpy as np
import pytest

from boneage.age_estimation import (
    AgeConfig,
    AgeEstimate,
    ReferenceAtlas,
    age_forward,
    build_age_model,
    default_atlas_classes,
    estimate_age,
    save_atlas,
    train_age,
)
from boneage.errors import ConfigError, ContractError, DimensionError, TrainingError
from boneage.imaging import GrayImage
from boneage.optim import TrainSettings
from boneage.tensor import Tensor

TINY = AgeConfig(input_size=(32, 32), backbone_channels=(4, 8), hidden=16)
ONE_EPOCH = TrainSettings(epochs=1, learning_rate=2e-3, batch_size=8)


def _crop(seed, size=(64, 64)):
    rng = np.random.default_rng(seed)
    return GrayImage(rng.random((size[1], size[0]), dtype=np.float32))


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------


def test_default_classes_are_six_ages_per_sex():
    classes = default_atlas_classes()
    assert len(classes) == 12
    ages = sorted({age for _, age in classes})
    assert ages == [120.0, 132.0, 144.0, 156.0, 168.0, 180.0]
    assert sum(1 for sex, _ in classes if sex == "female") == 6
    assert sum(1 for sex, _ in classes if sex == "male") == 6


def test_atlas_accepts_the_canonical_layout():
    atlas = ReferenceAtlas()
    assert list(atlas.classes) == default_atlas_classes()
    assert atlas.min_age == 120.0
    assert atlas.max_age == 180.0
    assert atlas.age_step == 12.0


def test_class_of_picks_nearest_age_of_matching_sex():
    atlas = ReferenceAtlas()
    assert atlas.classes[atlas.class_of("male", 141.0)] == ("male", 144.0)
    assert atlas.classes[atlas.class_of("female", 120.0)] == ("female", 120.0)
    with pytest.raises(ContractError):
        atlas.class_of("other", 120.0)


def test_atlas_save_load_roundtrip(tmp_path):
    """``save_atlas`` writes one `class_id sex age_months` line per class,
    and the lines read back as the class table."""
    manifest = tmp_path / "atlas" / "atlas.txt"
    save_atlas(ReferenceAtlas(), manifest)
    lines = manifest.read_text().splitlines()
    assert lines[0] == "0 female 120" and lines[11] == "11 male 180"
    rows = [line.split() for line in lines]
    assert [int(i) for i, _, _ in rows] == list(range(12))
    assert [(sex, float(age)) for _, sex, age in rows] == list(ReferenceAtlas.classes)
    assert [p.name for p in manifest.parent.iterdir()] == ["atlas.txt"]


# ---------------------------------------------------------------------------
# AgeEstimate
# ---------------------------------------------------------------------------


def test_estimate_requires_normalized_scores():
    scores = np.full(12, 1.0 / 12.0)
    AgeEstimate(age_months=150.0, class_scores=scores, nearest_class=0)
    with pytest.raises(ContractError, match="sum"):
        AgeEstimate(age_months=150.0, class_scores=scores * 2, nearest_class=0)


def test_estimate_requires_consistent_argmax():
    scores = np.zeros(12)
    scores[3] = 1.0
    with pytest.raises(ContractError, match="argmax"):
        AgeEstimate(age_months=150.0, class_scores=scores, nearest_class=5)


# ---------------------------------------------------------------------------
# network
# ---------------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        AgeConfig(backbone_channels=())
    with pytest.raises(ConfigError):
        AgeConfig(input_size=(62, 64))


def test_forward_shapes():
    model = build_age_model(TINY, seed=0)
    x = Tensor(np.random.default_rng(0).random((3, 1, 32, 32), dtype=np.float32))
    assert age_forward(model, x).data.shape == (3, 12)


def test_forward_rejects_wrong_shapes():
    model = build_age_model(TINY, seed=0)
    with pytest.raises(DimensionError):
        age_forward(model, Tensor(np.zeros((1, 1, 16, 32), dtype=np.float32)))
    with pytest.raises(DimensionError):
        age_forward(model, Tensor(np.zeros((1, 2, 32, 32), dtype=np.float32)))


def test_zeroed_model_scores_uniformly():
    model = build_age_model(TINY, seed=0)
    for t in model.params.values():
        t.data[:] = 0.0
    scores = estimate_age(model, _crop(1, (32, 32)), ReferenceAtlas()).class_scores
    np.testing.assert_allclose(scores, 1.0 / 12.0, atol=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_similarity_is_a_distribution(seed):
    model = build_age_model(TINY, seed=seed)
    scores = estimate_age(model, _crop(seed, (32, 32)), ReferenceAtlas()).class_scores
    assert scores.shape == (12,)
    assert np.all(scores > 0.0)
    assert abs(scores.sum() - 1.0) <= 1e-6


def test_estimate_age_is_the_class_expectation():
    atlas = ReferenceAtlas()
    model = build_age_model(TINY, seed=1)
    crop = _crop(2, (32, 32))
    est = estimate_age(model, crop, atlas)
    ages = [age for _, age in atlas.classes]
    assert est.age_months == pytest.approx(sum(p * a for p, a in zip(est.class_scores, ages)))
    # a class head sure of one class reads that class's age
    model.params["head_class.b"].data[:] = 0.0
    model.params["head_class.b"].data[8] = 100.0
    assert estimate_age(model, crop, atlas).age_months == pytest.approx(ages[8])


def test_estimate_age_nearest_class_tracks_scores():
    atlas = ReferenceAtlas()
    model = build_age_model(TINY, seed=2)
    est = estimate_age(model, _crop(3, (32, 32)), atlas)
    assert est.nearest_class == int(np.argmax(est.class_scores))
    assert abs(est.class_scores.sum() - 1.0) <= 1e-6
    assert atlas.min_age <= est.age_months <= atlas.max_age


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_train_validates_class_index():
    model = build_age_model(TINY, seed=0)
    crop = _crop(5, (32, 32))
    with pytest.raises(ContractError, match="sample 0"):
        train_age(model, [(crop, 12)], ONE_EPOCH)
    with pytest.raises(ContractError, match="sample 0"):
        train_age(model, [(crop, -1)], ONE_EPOCH)


def test_train_validates_crop_size():
    model = build_age_model(TINY, seed=0)
    with pytest.raises(DimensionError, match="sample 0"):
        train_age(model, [(_crop(6, (64, 64)), 3)], ONE_EPOCH)


def test_train_reports_epoch_and_batch_on_blowup():
    model = build_age_model(TINY, seed=0)
    model.params["head_class.b"].data[:] = np.nan
    with pytest.raises(TrainingError, match="epoch 0, batch 0"):
        train_age(model, [(_crop(7, (32, 32)), 3)], ONE_EPOCH)


def test_train_is_deterministic():
    data = [(_crop(i, (32, 32)), i % 12) for i in range(6)]
    runs = []
    for _ in range(2):
        model, history = train_age(build_age_model(TINY, seed=3), data, TrainSettings(3, 2e-3, 8), seed=5)
        runs.append((history, {n: t.data.tobytes() for n, t in model.params.items()}))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]


def test_single_sample_overfit_recovers_the_age():
    atlas = ReferenceAtlas()
    crop = _crop(8, (32, 32))
    truth = 156.0  # a class age: the expectation of a sure head is that age
    model = build_age_model(TINY, seed=4)
    model, history = train_age(
        model,
        [(crop, atlas.class_of("female", truth))],
        TrainSettings(epochs=400, learning_rate=3e-3, batch_size=1),
        seed=0,
    )
    est = estimate_age(model, crop, atlas)
    assert abs(est.age_months - truth) < 1.0
    assert est.nearest_class == atlas.class_of("female", truth)
