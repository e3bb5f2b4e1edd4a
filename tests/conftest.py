"""Shared fixtures.

The expensive piece is ``trained_stack``: one session-scoped training
run of all three networks on phantom data, with per-stage wall times
recorded so the acceptance tests can assert both quality and runtime
without retraining per test. Training happens in short chunks with an
early stop on a training-split quality probe; the held-out split is
never touched until the acceptance measurements.
"""

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List

import numpy as np
import pytest

from boneage.age_estimation import (
    ReferenceAtlas,
    build_age_model,
    estimate_age,
    train_age,
)
from boneage.checkpoint import save_checkpoint
from boneage.config import PipelineConfig, load_config
from boneage.imaging import resize_bilinear
from boneage.nn import Model
from boneage.phantom import PhantomSample, generate_dataset
from boneage.pipeline import (
    age_data_deployed,
    build_phantom_atlas,
    deployed_age_crop,
    masked_bone_image,
    prepared_box,
    roi_data,
    segmentation_data,
)
from boneage.roi import (
    RAW_HEIGHT,
    RAW_WIDTH,
    build_rpn,
    iou,
    predict_roi,
    prepare_roi_input,
    train_roi,
)
from boneage.segmentation import (
    build_unet,
    dice_score,
    segment,
    train_segmentation,
)

STACK_SEED = 11


def make_config(out_dir: Path, seed: int = STACK_SEED) -> PipelineConfig:
    cfg = load_config(None)
    cfg.seed = seed
    cfg.out_dir = out_dir
    cfg.seg_checkpoint = out_dir / "seg.ckpt"
    cfg.roi_checkpoint = out_dir / "roi.ckpt"
    cfg.age_checkpoint = out_dir / "age.ckpt"
    return cfg


# ---------------------------------------------------------------------------
# quality probes (used both for early stopping and by the acceptance tests)
# ---------------------------------------------------------------------------

def seg_holdout_dice(model: Model, samples) -> float:
    cfg = model.config
    scores = []
    for s in samples:
        mask, _ = segment(model, s.image)
        truth = resize_bilinear(s.bone_mask, cfg.width, cfg.height)
        scores.append(dice_score(mask, truth, threshold=cfg.threshold))
    return float(np.mean(scores))


def roi_quality(model: Model, samples):
    """(mean IoU on positives, mean confidence positives, mean conf negatives).

    Uses the ground-truth bone image through the standard geometry, so
    the probe scores the localizer alone, not the segmenter.
    """
    ious: List[float] = []
    conf_pos: List[float] = []
    conf_neg: List[float] = []
    for s in samples:
        bone = resize_bilinear(masked_bone_image(s), RAW_WIDTH, RAW_HEIGHT)
        box, conf = predict_roi(model, prepare_roi_input(bone))
        if s.is_true:
            ious.append(iou(box, prepared_box(s)))
            conf_pos.append(conf)
        else:
            conf_neg.append(conf)
    mean_iou = float(np.mean(ious)) if ious else 0.0
    return (
        mean_iou,
        float(np.mean(conf_pos)) if conf_pos else 0.0,
        float(np.mean(conf_neg)) if conf_neg else 1.0,
    )


def age_errors(model: Model, atlas: ReferenceAtlas, config, samples, seg_model):
    """(true ages, predicted ages) over the positive samples.

    Crops come from the trained segmenter with the true box, matching
    how the age network is trained and deployed while keeping the
    localizer out of the measurement.
    """
    truths, preds = [], []
    for s in samples:
        if not s.is_true:
            continue
        crop = deployed_age_crop(seg_model, s, config.age.input_size, prepared_box(s))
        est = estimate_age(model, crop, atlas)
        truths.append(s.age_months)
        preds.append(est.age_months)
    return np.asarray(truths), np.asarray(preds)


# ---------------------------------------------------------------------------
# the trained stack
# ---------------------------------------------------------------------------

@dataclass
class TrainedStack:
    config: PipelineConfig
    train_samples: List[PhantomSample]
    age_samples: List[PhantomSample]
    holdout: List[PhantomSample]
    seg_model: Model
    roi_model: Model
    age_model: Model
    atlas: ReferenceAtlas
    seconds: Dict[str, float] = field(default_factory=dict)
    epochs: Dict[str, int] = field(default_factory=dict)

    @property
    def holdout_positives(self) -> List[PhantomSample]:
        return [s for s in self.holdout if s.is_true]

    @property
    def holdout_negatives(self) -> List[PhantomSample]:
        return [s for s in self.holdout if not s.is_true]


@pytest.fixture(scope="session")
def trained_stack(tmp_path_factory) -> TrainedStack:
    out = tmp_path_factory.mktemp("stack")
    cfg = make_config(out)

    train_samples = generate_dataset(
        200, seed=cfg.seed, negative_fraction=0.2,
        image_size=cfg.phantom.image_size, noise_level=cfg.phantom.noise_level,
    )
    age_samples = generate_dataset(
        300, seed=cfg.seed + 20_000, negative_fraction=0.0,
        image_size=cfg.phantom.image_size, noise_level=cfg.phantom.noise_level,
    )
    holdout = generate_dataset(
        65, seed=cfg.seed + 10_000, negative_fraction=0.2,
        image_size=cfg.phantom.image_size, noise_level=cfg.phantom.noise_level,
    )

    seconds: Dict[str, float] = {}
    epochs: Dict[str, int] = {}
    probe = train_samples[:24]

    # --- segmentation: chunks of 4 epochs, stop once the training probe
    # is comfortably past the acceptance bar
    t0 = time.time()
    seg_model = build_unet(cfg.unet, seed=cfg.seed)
    seg_pairs = segmentation_data(train_samples, cfg.unet.input_size)
    done = 0
    while done < 40:
        train_segmentation(seg_model, seg_pairs, replace(cfg.seg_train, epochs=4), seed=cfg.seed + done)
        done += 4
        if seg_holdout_dice(seg_model, probe) >= 0.93:
            break
    seconds["seg"] = time.time() - t0
    epochs["seg"] = done
    save_checkpoint(cfg.seg_checkpoint, seg_model.params)

    # --- localization
    t0 = time.time()
    roi_model = build_rpn(cfg.rpn, seed=cfg.seed)
    roi_triples = roi_data(train_samples, cfg.rpn.input_size)
    done = 0
    while done < 60:
        train_roi(roi_model, roi_triples, replace(cfg.roi_train, epochs=5), seed=cfg.seed + done)
        done += 5
        mean_iou, conf_pos, conf_neg = roi_quality(roi_model, probe)
        if mean_iou >= 0.65 and conf_pos - conf_neg > 0.2:
            break
    seconds["roi"] = time.time() - t0
    epochs["roi"] = done
    save_checkpoint(cfg.roi_checkpoint, roi_model.params)

    # --- age estimation
    t0 = time.time()
    atlas = build_phantom_atlas(cfg)
    age_model = build_age_model(cfg.age, seed=cfg.seed)
    age_pairs = age_data_deployed(age_samples, cfg.age.input_size, seg_model, seed=cfg.seed)
    done = 0
    while done < 100:
        train_age(age_model, age_pairs, replace(cfg.age_train, epochs=5), seed=cfg.seed + done)
        done += 5
        truths, preds = age_errors(age_model, atlas, cfg, age_samples[:24], seg_model)
        if np.mean(np.abs(truths - preds)) < 3.0:
            break
    seconds["age"] = time.time() - t0
    epochs["age"] = done
    save_checkpoint(cfg.age_checkpoint, age_model.params)

    return TrainedStack(
        config=cfg,
        train_samples=train_samples,
        age_samples=age_samples,
        holdout=holdout,
        seg_model=seg_model,
        roi_model=roi_model,
        age_model=age_model,
        atlas=atlas,
        seconds=seconds,
        epochs=epochs,
    )
