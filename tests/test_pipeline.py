"""Pipeline orchestration: data prep, checkpoint startup, end-to-end runs.

The end-to-end cases ride on the session-scoped trained stack, so they
score real checkpoints without retraining per test.
"""

import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from boneage import imaging
from boneage.age_estimation import (
    ReferenceAtlas,
    build_age_model,
    train_age,
)
from boneage.checkpoint import save_checkpoint
from boneage.cli import main
from boneage.config import PipelineConfig, load_config, rebase_out
from boneage.errors import (
    CheckpointError,
    ContractError,
    DimensionError,
    StartupError,
    TrainingError,
)
from boneage.imaging import GrayImage, load_image, save_image
from boneage.nn import VggConfig
from boneage.optim import TrainSettings
from boneage.phantom import PhantomSpec, generate_dataset, generate_phantom
from boneage.roi import RAW_HEIGHT, RAW_WIDTH, RoiBox, build_rpn, prepare_roi_input, train_roi
from boneage.segmentation import UNetConfig, build_unet, train_segmentation
from boneage.tensor import Tensor
from boneage.pipeline import (
    STAGES,
    Pipeline,
    PredictionRecord,
    age_data_deployed,
    holdout_phantoms,
    load_model,
    masked_bone_image,
    prepared_box,
    roi_data,
    segmentation_data,
    train_age_stage,
    train_roi_stage,
    train_segmentation_stage,
    training_phantoms,
)

from conftest import make_config


def _sample(seed=0, maturity=0.5, joint=True):
    return generate_phantom(
        PhantomSpec(seed=seed, maturity=maturity, sex="female", joint_present=joint)
    )


# ---------------------------------------------------------------------------
# training data preparation
# ---------------------------------------------------------------------------


def test_masked_bone_image_is_the_pixelwise_product():
    s = _sample(1)
    out = masked_bone_image(s)
    np.testing.assert_array_equal(out.pixels, s.image.pixels * s.bone_mask.pixels)
    assert np.all(out.pixels <= s.image.pixels)


def test_segmentation_data_resizes_to_the_net_with_binary_masks():
    samples = [_sample(2), _sample(3, joint=False)]
    pairs = segmentation_data(samples, (32, 32))
    assert len(pairs) == 2
    for img, mask in pairs:
        assert (img.width, img.height) == (32, 32)
        assert (mask.width, mask.height) == (32, 32)
        assert set(np.unique(mask.pixels)) <= {0.0, 1.0}
        assert mask.pixels.any()


def test_roi_data_scales_boxes_into_the_net_frame():
    samples = [_sample(2), _sample(3, joint=False)]
    triples = roi_data(samples, (48, 64))
    assert len(triples) == 2
    for img, box, flag in triples:
        assert (img.width, img.height) == (48, 64)
        assert box.inside(48, 64)
    assert triples[0][2] is True
    assert triples[1][2] is False


def test_roi_data_box_matches_the_prepared_truth():
    s = _sample(4)
    (_, box, _), = roi_data([s], (96, 128))
    want = prepared_box(s).scaled(96 / 720, 128 / 960)
    assert box.as_tuple() == pytest.approx(want.as_tuple(), abs=1e-6)


def test_age_data_keeps_positives_only(tmp_path):
    cfg = make_config(tmp_path)
    samples = [_sample(5), _sample(6, joint=False), _sample(7, maturity=1.0)]
    pairs = age_data_deployed(samples, cfg.age.input_size, build_unet(cfg.unet))
    assert len(pairs) == 2
    for crop, _, _ in pairs:
        assert (crop.width, crop.height) == cfg.age.input_size
    # each crop carries its sample's sex and age, from which train_age builds its target
    assert [(sex, age) for _, sex, age in pairs] == [("female", 150.0), ("female", 180.0)]


def test_age_data_crops_on_the_smallest_canvas():
    """On 32x32 phantoms the bone fills most of the frame, and a box the
    jitter grows past the 720x960 frame is cut to it, not clamped off it."""
    samples = generate_dataset(4, seed=0, negative_fraction=0.0, image_size=(32, 32))
    seg = build_unet(UNetConfig(depth=2, base_channels=4, input_size=(32, 32)))
    pairs = age_data_deployed(samples, (32, 32), seg)
    assert [(crop.width, crop.height) for crop, _, _ in pairs] == [(32, 32)] * 4


def test_training_and_holdout_streams_are_disjoint(tmp_path):
    cfg = make_config(tmp_path)
    train = training_phantoms(cfg, 30)
    held = holdout_phantoms(cfg, 30)
    train_bytes = {s.image.pixels.tobytes() for s in train}
    held_bytes = {s.image.pixels.tobytes() for s in held}
    assert not (train_bytes & held_bytes)


@pytest.mark.parametrize("phantoms", [training_phantoms, holdout_phantoms])
def test_zero_count_is_not_the_configured_count(tmp_path, phantoms):
    cfg = make_config(tmp_path)
    cfg.phantom = replace(cfg.phantom, train_count=3, holdout_count=3)
    assert len(phantoms(cfg)) == 3
    with pytest.raises(ContractError, match="dataset size must be >= 1, got 0"):
        phantoms(cfg, 0)


# ---------------------------------------------------------------------------
# training stages
# ---------------------------------------------------------------------------

TRAINERS = {"segmentation": train_segmentation, "localization": train_roi, "age": train_age}


def _tiny_config(tmp_path):
    """Small nets, and recipes that differ from stage to stage, so a
    stage that trained with another stage's recipe would show."""
    cfg = make_config(tmp_path, seed=3)
    cfg.unet = UNetConfig(depth=2, base_channels=4, input_size=(32, 32))
    cfg.rpn = VggConfig(backbone_channels=(4, 8), input_size=(48, 64), hidden=16)
    cfg.age = VggConfig(input_size=(32, 32), backbone_channels=(4, 8), hidden=16)
    cfg.seg_train = TrainSettings(epochs=2, learning_rate=5e-3, batch_size=3)
    cfg.roi_train = TrainSettings(epochs=3, learning_rate=4e-3, batch_size=2)
    cfg.age_train = TrainSettings(epochs=2, learning_rate=3e-3, batch_size=1)
    return cfg


@pytest.mark.parametrize("stage", list(STAGES))
def test_stage_trains_with_the_config_recipe(tmp_path, stage):
    """A stage is its trainer on the stage's data with the config's
    TrainSettings and seed: the checkpoints match byte for byte."""
    cfg = _tiny_config(tmp_path)
    samples = training_phantoms(cfg, 5)
    seg = build_unet(cfg.unet, seed=5)
    staged, data = {
        "segmentation": (
            lambda: train_segmentation_stage(cfg, samples),
            lambda: segmentation_data(samples, cfg.unet.input_size),
        ),
        "localization": (
            lambda: train_roi_stage(cfg, samples),
            lambda: roi_data(samples, cfg.rpn.input_size),
        ),
        "age": (
            lambda: train_age_stage(cfg, samples, seg_model=seg),
            lambda: age_data_deployed(samples, cfg.age.input_size, seg, seed=cfg.seed),
        ),
    }[stage]
    history = staged()[-1]
    build, geometry, checkpoint, settings = STAGES[stage]
    model, direct = TRAINERS[stage](
        build(getattr(cfg, geometry), seed=cfg.seed), data(), getattr(cfg, settings), seed=cfg.seed
    )
    save_checkpoint(tmp_path / "direct.ckpt", model.params)
    assert history == direct
    assert len(history) == getattr(cfg, settings).epochs
    assert getattr(cfg, checkpoint).read_bytes() == (tmp_path / "direct.ckpt").read_bytes()


def _image(width, height, value=0.0):
    return GrayImage(np.full((height, width), value, dtype=np.float32))


@pytest.mark.parametrize("stage", list(STAGES))
def test_trainer_rejects_an_off_size_sample_naming_it(tmp_path, stage):
    """The data builders own sample geometry: a trainer resizes nothing."""
    cfg = _tiny_config(tmp_path)
    build, geometry, _, settings = STAGES[stage]
    w, h = getattr(cfg, geometry).input_size
    pairs = [(_image(w, h), _image(w, h, 1.0)), (_image(2 * w, 2 * h), _image(2 * w, 2 * h, 1.0))]
    dataset = {
        "segmentation": pairs,
        "localization": [(img, RoiBox(1, 1, 8, 8), True) for img, _ in pairs],
        "age": [(img, "female", 150.0) for img, _ in pairs],
    }[stage]
    message = f"^sample 1: expected a {w}x{h} image, got {2 * w}x{2 * h}$"
    with pytest.raises(DimensionError, match=message):
        TRAINERS[stage](build(getattr(cfg, geometry)), dataset, getattr(cfg, settings))


@pytest.mark.parametrize("stage", list(STAGES))
def test_fit_rejects_an_empty_dataset_naming_the_stage(tmp_path, stage):
    cfg = _tiny_config(tmp_path)
    build, geometry, _, settings = STAGES[stage]
    label = {"segmentation": "seg", "localization": "roi", "age": "age"}[stage]
    with pytest.raises(TrainingError, match=f"^{label} training needs at least one sample$"):
        TRAINERS[stage](build(getattr(cfg, geometry)), [], getattr(cfg, settings))


# ---------------------------------------------------------------------------
# startup errors
# ---------------------------------------------------------------------------


def test_load_names_the_first_missing_stage(tmp_path):
    cfg = make_config(tmp_path)
    with pytest.raises(StartupError, match="segmentation: checkpoint missing"):
        Pipeline.load(cfg)
    cfg.seg_checkpoint.write_bytes(b"")
    with pytest.raises(StartupError, match="localization: checkpoint missing"):
        Pipeline.load(cfg)
    cfg.roi_checkpoint.write_bytes(b"")
    with pytest.raises(StartupError, match="age: checkpoint missing"):
        Pipeline.load(cfg)
    cfg.age_checkpoint.write_bytes(b"")
    # the three checkpoints are every file a load needs
    with pytest.raises(CheckpointError, match="^segmentation:"):
        Pipeline.load(cfg)


def test_load_prefixes_corrupt_checkpoint_errors(tmp_path):
    cfg = make_config(tmp_path)
    for p in (cfg.seg_checkpoint, cfg.roi_checkpoint, cfg.age_checkpoint):
        p.write_bytes(b"not a checkpoint\n")
    with pytest.raises(CheckpointError, match="segmentation:"):
        Pipeline.load(cfg)


# the age net's flattened last block at the default crop: 32 channels of
# maps three pools smaller than the crop
_AGE_FC_ROWS = 32 * (PipelineConfig().age.height // 8) * (PipelineConfig().age.width // 8)


@pytest.mark.parametrize(
    "stage, changes, reason",
    [
        ("segmentation", {"depth": 2, "base_channels": 4, "input_size": (32, 32)},
         "parameter names do not match model"),
        ("localization", {"backbone_channels": (4, 8, 16)},
         "'block0.conv1.w' has shape (4, 1, 3, 3), model expects (8, 1, 3, 3)"),
        ("age", {"hidden": 32},
         f"'fc.w' has shape ({_AGE_FC_ROWS}, 32), model expects ({_AGE_FC_ROWS}, 64)"),
    ],
    ids=list(STAGES),
)
def test_load_rejects_checkpoint_from_a_different_geometry(tmp_path, stage, changes, reason):
    """Every stage checks its checkpoint against the config's geometry,
    and the stages before it load."""
    cfg = make_config(tmp_path)
    for name, (build, geometry, checkpoint, _) in STAGES.items():
        net = getattr(cfg, geometry)
        if name == stage:
            net = replace(net, **changes)
        save_checkpoint(getattr(cfg, checkpoint), build(net, seed=0).params)
    with pytest.raises(CheckpointError, match=f"^{stage}: .*{re.escape(reason)}"):
        Pipeline.load(cfg)


@pytest.mark.parametrize(
    "stage, old_size, reason",
    [
        ("localization", (96, 128), "'fc.w' has shape (6144, 64), model expects (3072, 64)"),
        ("age", (64, 64), "'fc.w' has shape (2048, 64), model expects (1024, 64)"),
    ],
    ids=["localization", "age"],
)
def test_load_refuses_a_checkpoint_at_the_earlier_default_geometry(
    tmp_path, capsys, stage, old_size, reason
):
    """A localizer trained at 96x128 or an age net at a 64x64 crop, the
    defaults before both were sized to the pixels they are given, is
    refused under today's defaults, and nothing is predicted."""
    cfg = make_config(tmp_path)
    for name, (build, geometry, checkpoint, _) in STAGES.items():
        net = getattr(cfg, geometry)
        if name == stage:
            net = replace(net, input_size=old_size)
        save_checkpoint(getattr(cfg, checkpoint), build(net, seed=0).params)
    with pytest.raises(CheckpointError, match=f"^{stage}: .*{re.escape(reason)}"):
        Pipeline.load(cfg)
    image = tmp_path / "case.pgm"
    save_image(_sample(5).image, image)
    assert main(["predict", str(image), "--out", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {stage}: ") and reason in err
    assert not (tmp_path / "predictions.csv").exists()


def test_load_refuses_an_age_checkpoint_with_the_retired_regression_head(tmp_path):
    """An age checkpoint in the two-head layout, with ``head_reg`` beside
    the class head, is refused at load: it must be retrained."""
    cfg = make_config(tmp_path)
    for name, (build, geometry, checkpoint, _) in STAGES.items():
        params = build(getattr(cfg, geometry), seed=cfg.seed).params
        if name == "age":
            params["head_reg.w"] = Tensor(np.zeros((cfg.age.hidden, 1), dtype=np.float32))
            params["head_reg.b"] = Tensor(np.zeros(1, dtype=np.float32))
        save_checkpoint(getattr(cfg, checkpoint), params)
    with pytest.raises(CheckpointError, match=r"^age: .*extra=\['head_reg.b', 'head_reg.w'\]"):
        Pipeline.load(cfg)


@pytest.mark.parametrize("stage", list(STAGES))
def test_restore_build_has_the_seeded_layout_and_loads_its_bytes(tmp_path, stage):
    """A build with no seed is zero placeholders under the seeded build's
    names, shapes and order, and ``load_model`` fills them with the
    checkpoint's bytes."""
    cfg = make_config(tmp_path)
    build, geometry, checkpoint, _ = STAGES[stage]
    seeded = build(getattr(cfg, geometry), seed=cfg.seed).params
    placeholder = build(getattr(cfg, geometry), seed=None).params
    assert [(k, p.shape) for k, p in placeholder.items()] == [(k, p.shape) for k, p in seeded.items()]
    for p in placeholder.values():
        assert p.requires_grad and p.data.dtype == np.float32 and not p.data.any()
    save_checkpoint(getattr(cfg, checkpoint), seeded)
    loaded = load_model(cfg, stage).params
    assert list(loaded) == list(seeded)
    for name, p in loaded.items():
        assert p.data.dtype == np.float32 and p.data.flags.owndata and p.data.flags.writeable
        assert p.data.tobytes() == seeded[name].data.tobytes()


# ---------------------------------------------------------------------------
# record formatting
# ---------------------------------------------------------------------------


def test_record_format_line():
    rec = PredictionRecord(
        image_path="a.pgm", age_months=151.26, nearest_class=4,
        confidence=0.98765, low_confidence=False,
    )
    assert rec.format_line() == "a.pgm 151.3 4 0.9877"
    rec.low_confidence = True
    assert rec.format_line().endswith(" low_confidence")
    rec.empty_mask = True
    assert rec.format_line() == "a.pgm 151.3 4 0.9877 low_confidence empty_mask"
    rec.low_confidence = False
    assert rec.format_line() == "a.pgm 151.3 4 0.9877 empty_mask"


def _untrained_pipeline(tmp_path, head_bias=None):
    """Seeded, untrained networks; ``head_bias`` pins the U-Net's output logit."""
    cfg = make_config(tmp_path, seed=3)
    seg = build_unet(cfg.unet, seed=3)
    if head_bias is not None:
        seg.params["head.w"].data[...] = 0.0
        seg.params["head.b"].data[...] = head_bias
    return Pipeline(
        cfg, seg, build_rpn(cfg.rpn, seed=3), build_age_model(cfg.age, seed=3), ReferenceAtlas()
    )


def test_all_background_mask_is_flagged_empty(tmp_path):
    image = _sample(4).image
    empty = _untrained_pipeline(tmp_path, head_bias=-30.0).predict_image(image)
    assert empty.empty_mask
    assert empty.format_line().endswith(" empty_mask")
    full = _untrained_pipeline(tmp_path, head_bias=30.0).predict_image(image)
    assert not full.empty_mask
    assert "empty_mask" not in full.format_line()


def _count_blended_pixels(monkeypatch):
    """Patch the resampler's blend core to count the pixels it produces."""
    produced = []
    blend = imaging._blend

    def counting(*args):
        out = blend(*args)
        produced.append(out.size)
        return out

    monkeypatch.setattr(imaging, "_blend", counting)
    return produced


def test_prediction_without_dumps_builds_no_720_scale_frame(tmp_path, monkeypatch):
    pipe = _untrained_pipeline(tmp_path)
    image = _sample(5).image
    want = pipe.predict_image(image).format_line()
    produced = _count_blended_pixels(monkeypatch)
    assert pipe.predict_image(image).format_line() == want
    # one sample of the net-size bone image, for the crop; the localizer
    # input is its quarter turn, taken without a blend, and the 720x480
    # and 720x960 frames would be 1.04 Mpix
    age = pipe.config.age
    assert produced == [age.width * age.height] == [32 * 64]


def test_localizer_input_is_the_quarter_turned_segmenter_grid(monkeypatch):
    """At the default geometry the localizer reads the net-size bone
    image turned a quarter, byte for byte, and no pixel is blended."""
    cfg = PipelineConfig()
    assert cfg.rpn.input_size == (cfg.unet.height, cfg.unet.width)
    small = masked_bone_image(_sample(5))  # the phantom canvas is the U-Net's grid
    assert (small.width, small.height) == cfg.unet.input_size
    bone = imaging.resize_bilinear(small, RAW_WIDTH, RAW_HEIGHT)  # as ``segment`` returns it
    produced = _count_blended_pixels(monkeypatch)
    net_input = imaging.resize_bilinear(prepare_roi_input(bone), cfg.rpn.width, cfg.rpn.height)
    assert net_input.pixels.tobytes() == np.rot90(small.pixels).tobytes()
    assert produced == []


def test_dumps_build_the_full_frames(tmp_path, monkeypatch):
    pipe = _untrained_pipeline(tmp_path)
    image = _sample(5).image
    want = pipe.predict_image(image).format_line()
    produced = _count_blended_pixels(monkeypatch)
    dump = tmp_path / "debug"
    assert pipe.predict_image(image, dump_dir=dump).format_line() == want
    assert 720 * 480 in produced and 720 * 960 in produced
    sizes = {name: load_image(dump / f"{name}.pgm") for name in ("mask", "bone", "prepared", "crop")}
    assert {k: (v.width, v.height) for k, v in sizes.items()} == {
        "mask": (96, 64), "bone": (720, 480), "prepared": (720, 960),
        "crop": pipe.config.age.input_size,
    }


# A fresh interpreter that imports what the predict command does, loads
# the checkpoints and predicts: what one `boneage predict` process per
# image pays before its first pixel. It prints which of the module names
# after the image it imported.
_COLD_PREDICT = """
import sys
from pathlib import Path
import boneage.cli
from boneage.config import PipelineConfig, load_config, rebase_out
from boneage.pipeline import Pipeline
cfg = load_config(None)
rebase_out(cfg, Path(sys.argv[1]))
print(Pipeline.load(cfg).predict_path(sys.argv[2]).format_line())
print([name for name in sys.argv[3:] if name in sys.modules])
"""
# restoring checkpoints draws no weights, and only eval and selftest score
_NOT_ON_THE_PREDICT_PATH = ("numpy.random", "boneage.metrics")


def test_cold_load_draws_nothing_and_predicts_like_the_seeded_models(tmp_path):
    pipe = _untrained_pipeline(tmp_path)
    image = tmp_path / "case.pgm"
    save_image(_sample(5).image, image)
    cfg = load_config(None)
    rebase_out(cfg, tmp_path / "out")
    cfg.out_dir.mkdir(parents=True)
    for model, (_, _, checkpoint, _) in zip(
        (pipe.seg_model, pipe.roi_model, pipe.age_model), STAGES.values()
    ):
        save_checkpoint(getattr(cfg, checkpoint), model.params)
    src = str(Path(imaging.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _COLD_PREDICT, str(cfg.out_dir), str(image), *_NOT_ON_THE_PREDICT_PATH],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [pipe.predict_path(image).format_line(), "[]"]


# ---------------------------------------------------------------------------
# end to end on the trained stack
# ---------------------------------------------------------------------------


def test_end_to_end_age_error_is_bounded(trained_stack, tmp_path):
    sample = trained_stack.holdout_positives[0]
    path = tmp_path / "case.pgm"
    save_image(sample.image, path)
    record = Pipeline.load(trained_stack.config).predict_path(path)
    assert abs(record.age_months - sample.age_months) < 12.0
    assert not record.low_confidence


def test_end_to_end_is_deterministic(trained_stack, tmp_path):
    sample = trained_stack.holdout_positives[1]
    path = tmp_path / "case.pgm"
    save_image(sample.image, path)
    a = Pipeline.load(trained_stack.config).predict_path(path)
    b = Pipeline.load(trained_stack.config).predict_path(path)
    assert a == b


def test_end_to_end_artifact_sizes(trained_stack, tmp_path):
    from boneage.imaging import load_image

    sample = trained_stack.holdout_positives[2]
    path = tmp_path / "case.pgm"
    save_image(sample.image, path)
    dump = tmp_path / "debug"
    Pipeline.load(trained_stack.config).predict_path(path, dump_dir=dump)
    bone = load_image(dump / "bone.pgm")
    assert (bone.width, bone.height) == (720, 480)
    prepared = load_image(dump / "prepared.pgm")
    assert (prepared.width, prepared.height) == (720, 960)
    crop = load_image(dump / "crop.pgm")
    assert (crop.width, crop.height) == trained_stack.config.age.input_size


def test_negative_input_is_flagged_low_confidence(trained_stack):
    pipe = Pipeline(
        trained_stack.config,
        trained_stack.seg_model,
        trained_stack.roi_model,
        trained_stack.age_model,
        trained_stack.atlas,
    )
    neg = trained_stack.holdout_negatives[0]
    record = pipe.predict_image(neg.image, image_path="<phantom>")
    assert record.low_confidence
    pos = trained_stack.holdout_positives[0]
    record = pipe.predict_image(pos.image, image_path="<phantom>")
    assert not record.low_confidence
    assert record.image_path == "<phantom>"
