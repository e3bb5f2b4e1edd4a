"""End-to-end orchestration: data preparation, training, prediction.

The prediction path runs load -> segment (720x480 bone image) ->
prepare (720x960) -> localize -> crop -> estimate age. The 720-scale
images are lazy (see ``imaging``): their resizes, quarter turn and crop
compose into one map per axis over the segmenter's net-size bone image,
so the localizer input and the crop are each one bilinear sample of
it, and the full frames are built only where they are written out
(``dump_dir``). The localization stage is teacher-forced: exact
phantom masks and boxes are pushed through the same geometric chain
the predictor uses. The age stage instead crops from the *trained
segmenter's* bone output (with the true boxes lightly perturbed),
because the age network is sensitive to the faint background halo a
learned mask leaves around the bone — ground-truth crops would train
it on pixels it never sees at prediction time.
"""

from __future__ import annotations

import numpy as np

from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from .age_estimation import (
    ReferenceAtlas,
    build_age_model,
    estimate_age,
    train_age,
)
from .checkpoint import load_checkpoint, restore_params, save_checkpoint
from .config import PipelineConfig
from .errors import BoneAgeError, StartupError
from .imaging import GrayImage, load_image, resize_bilinear, save_image
from .nn import Model
from .phantom import PhantomSample, generate_dataset
from .roi import (
    PREPARED_HEIGHT,
    PREPARED_WIDTH,
    RAW_HEIGHT,
    RAW_WIDTH,
    RoiBox,
    build_rpn,
    crop_roi,
    predict_roi,
    prepare_roi_input,
    train_roi,
    transform_box_to_prepared,
)
from .segmentation import build_unet, segment, train_segmentation

LogFn = Optional[Callable[[str], None]]


@dataclass
class PredictionRecord:
    """One pipeline output: `image_path age_months nearest_class confidence`,
    then a `low_confidence` and an `empty_mask` token where those flags are set.

    ``empty_mask`` means the segmenter kept no pixel, so the age came from
    an all-zero bone image.
    """

    image_path: str
    age_months: float
    nearest_class: int
    confidence: float
    low_confidence: bool
    empty_mask: bool = False

    def format_line(self) -> str:
        line = (
            f"{self.image_path} {self.age_months:.1f} "
            f"{self.nearest_class} {self.confidence:.4f}"
        )
        if self.low_confidence:
            line += " low_confidence"
        if self.empty_mask:
            line += " empty_mask"
        return line


@contextmanager
def stage(label: str):
    """Prefix any pipeline error with the stage that raised it."""
    try:
        yield
    except BoneAgeError as exc:
        raise type(exc)(f"{label}: {exc}") from exc


# ---------------------------------------------------------------------------
# training data preparation
# ---------------------------------------------------------------------------

def masked_bone_image(sample: PhantomSample) -> GrayImage:
    """Ground-truth bone image: phantom pixels kept where the mask fires."""
    return GrayImage(sample.image.pixels * sample.bone_mask.pixels)


def segmentation_data(
    samples: Sequence[PhantomSample], net_size: Tuple[int, int]
) -> List[Tuple[GrayImage, GrayImage]]:
    """(net-size image, binary mask) pairs for the segmentation trainer; a
    canvas of another size is resized and its mask re-binarized at 0.5."""
    net_w, net_h = net_size
    out = []
    for s in samples:
        mask = s.bone_mask
        if (mask.width, mask.height) != net_size:
            mask = GrayImage((resize_bilinear(mask, net_w, net_h).pixels >= 0.5).astype(np.float32))
        out.append((resize_bilinear(s.image, net_w, net_h), mask))
    return out


def roi_data(
    samples: Sequence[PhantomSample], net_size: Tuple[int, int]
) -> List[Tuple[GrayImage, RoiBox, bool]]:
    """(net-size image, net-scale box, is_true) for the localization trainer.

    Each phantom's ground-truth bone image runs through the real
    geometric chain (720x480 -> rotate -> 720x960 -> net size, one
    sample of the bone image), and its box is carried through the same
    transforms.
    """
    net_w, net_h = net_size
    out = []
    for s in samples:
        bone = resize_bilinear(masked_bone_image(s), RAW_WIDTH, RAW_HEIGHT)
        prepared = prepare_roi_input(bone)
        small = resize_bilinear(prepared, net_w, net_h)
        box = prepared_box(s).scaled(net_w / PREPARED_WIDTH, net_h / PREPARED_HEIGHT)
        out.append((small, box, s.is_true))
    return out


def prepared_box(s: PhantomSample) -> RoiBox:
    """Ground-truth box carried to 720x960 prepared coordinates."""
    raw = s.roi.scaled(RAW_WIDTH / s.image.width, RAW_HEIGHT / s.image.height)
    return transform_box_to_prepared(raw)


def _jitter_box(box: RoiBox, rng: np.random.Generator) -> RoiBox:
    """Perturb a box the way the localizer tends to miss: a little
    off-center and somewhat too large or too small."""
    w = box.w * float(rng.uniform(0.85, 1.25))
    h = box.h * float(rng.uniform(0.85, 1.25))
    cx = box.x + box.w / 2.0 + float(rng.uniform(-0.08, 0.08)) * box.w
    cy = box.y + box.h / 2.0 + float(rng.uniform(-0.08, 0.08)) * box.h
    # on a small phantom canvas the bone can fill the frame, and a box
    # grown past it would be clamped off its edge
    w, h = min(w, PREPARED_WIDTH), min(h, PREPARED_HEIGHT)
    x = min(max(cx - w / 2.0, 0.0), PREPARED_WIDTH - w)
    y = min(max(cy - h / 2.0, 0.0), PREPARED_HEIGHT - h)
    return RoiBox(x=x, y=y, w=w, h=h)


def deployed_age_crop(
    seg_model: Model,
    sample: PhantomSample,
    crop_size: Tuple[int, int],
    box: Optional[RoiBox] = None,
) -> GrayImage:
    """Joint crop exactly as prediction produces it: the image is
    masked by the trained segmenter before the geometric chain."""
    _, bone = segment(seg_model, sample.image)
    prepared = prepare_roi_input(bone)
    target = box if box is not None else prepared_box(sample)
    return crop_roi(prepared, target, crop_size[0], crop_size[1])


def age_data_deployed(
    samples: Sequence[PhantomSample],
    atlas: ReferenceAtlas,
    crop_size: Tuple[int, int],
    seg_model: Model,
    seed: int = 0,
) -> List[Tuple[GrayImage, int]]:
    """Age-training (crop, class_index) pairs cropped from the trained
    segmenter's output.

    Every other sample uses a perturbed box instead of the true one, so
    the age network also tolerates localization error.
    """
    rng = np.random.default_rng(seed)
    out = []
    kept = 0
    for s in samples:
        if not s.is_true:
            continue
        base = prepared_box(s)
        box = base if kept % 2 == 0 else _jitter_box(base, rng)
        kept += 1
        crop = deployed_age_crop(seg_model, s, crop_size, box=box)
        out.append((crop, atlas.class_of(s.sex, s.age_months)))
    return out


def build_phantom_atlas(config: PipelineConfig) -> ReferenceAtlas:
    """The atlas the age stage trains and predicts against: the fixed
    (sex, age) class table, the same for every configuration."""
    return ReferenceAtlas()


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

# stage name -> (builder, config geometry attribute, checkpoint path
# attribute, TrainSettings attribute); the CLI labels stages by these names
STAGES = {
    "segmentation": (build_unet, "unet", "seg_checkpoint", "seg_train"),
    "localization": (build_rpn, "rpn", "roi_checkpoint", "roi_train"),
    "age": (build_age_model, "age", "age_checkpoint", "age_train"),
}


def _checkpoint_path(config: PipelineConfig, stage: str) -> Path:
    path = getattr(config, STAGES[stage][2])
    if not Path(path).is_file():
        raise StartupError(f"{stage}: checkpoint missing at {path} (train that stage first)")
    return path


def load_model(config: PipelineConfig, name: str):
    """Build stage ``name``'s network from config geometry and restore its
    checkpoint; any error names the stage. The build draws nothing (zero
    placeholders), and the model takes over the arrays the load made."""
    path = _checkpoint_path(config, name)
    build, geometry = STAGES[name][:2]
    model = build(getattr(config, geometry), seed=None)
    with stage(name):
        restore_params(model.params, load_checkpoint(path), str(path))
    return model


# ---------------------------------------------------------------------------
# training orchestration
# ---------------------------------------------------------------------------

def phantom_set(
    config: PipelineConfig, count: int, seed: int, negative_fraction: float
) -> List[PhantomSample]:
    """``count`` phantoms on the configured canvas and noise level."""
    return generate_dataset(
        count,
        seed=seed,
        negative_fraction=negative_fraction,
        image_size=config.phantom.image_size,
        noise_level=config.phantom.noise_level,
    )


def training_phantoms(config: PipelineConfig, count: Optional[int] = None) -> List[PhantomSample]:
    count = config.phantom.train_count if count is None else count
    return phantom_set(config, count, config.seed, config.phantom.negative_fraction)


def holdout_phantoms(config: PipelineConfig, count: Optional[int] = None) -> List[PhantomSample]:
    # disjoint master seed stream from training
    count = config.phantom.holdout_count if count is None else count
    return phantom_set(config, count, config.seed + 10_000, config.phantom.negative_fraction)


def _fit_stage(config: PipelineConfig, stage: str, train, dataset, log_fn: LogFn):
    """Build one stage's network, fit it to ``dataset`` with the stage's
    TrainSettings and save its checkpoint."""
    build, geometry, checkpoint, settings = STAGES[stage]
    model, history = train(
        build(getattr(config, geometry), seed=config.seed),
        dataset,
        getattr(config, settings),
        seed=config.seed,
        log_fn=log_fn,
    )
    path = getattr(config, checkpoint)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(path, model.params)
    return model, history


def train_segmentation_stage(
    config: PipelineConfig, samples: Sequence[PhantomSample], log_fn: LogFn = None
) -> Tuple[Model, List[float]]:
    data = segmentation_data(samples, config.unet.input_size)
    return _fit_stage(config, "segmentation", train_segmentation, data, log_fn)


def train_roi_stage(
    config: PipelineConfig, samples: Sequence[PhantomSample], log_fn: LogFn = None
) -> Tuple[Model, List[float]]:
    return _fit_stage(
        config, "localization", train_roi, roi_data(samples, config.rpn.input_size), log_fn
    )


def train_age_stage(
    config: PipelineConfig,
    samples: Sequence[PhantomSample],
    log_fn: LogFn = None,
    seg_model: Optional[Model] = None,
) -> Tuple[Model, ReferenceAtlas, List[float]]:
    """Train the age network on crops from the trained segmenter.

    Requires the segmentation checkpoint (or a seg_model passed in),
    since the age network must see segmenter-masked crops.
    """
    if seg_model is None:
        seg_model = load_model(config, "segmentation")
    atlas = build_phantom_atlas(config)
    dataset = age_data_deployed(samples, atlas, config.age.input_size, seg_model, seed=config.seed)
    model, history = _fit_stage(config, "age", train_age, dataset, log_fn)
    return model, atlas, history


# ---------------------------------------------------------------------------
# prediction
# ---------------------------------------------------------------------------

@dataclass
class Pipeline:
    """Loaded models plus the atlas; runs the full prediction chain."""

    config: PipelineConfig
    seg_model: Model
    roi_model: Model
    age_model: Model
    atlas: ReferenceAtlas

    @classmethod
    def load(cls, config: PipelineConfig) -> "Pipeline":
        """Build models from config geometry and restore checkpoints.

        Every checkpoint is checked for presence before any is read; the
        atlas is the fixed class table and comes from no file.
        """
        for stage in STAGES:
            _checkpoint_path(config, stage)
        models = [load_model(config, stage) for stage in STAGES]
        return cls(config, *models, build_phantom_atlas(config))

    def predict_image(
        self, img: GrayImage, image_path: str = "<memory>", dump_dir: Optional[Path] = None
    ) -> PredictionRecord:
        """Run the staged chain on an already-loaded image."""
        with stage("segment"):
            mask, bone = segment(self.seg_model, img)
        with stage("prepare"):
            prepared = prepare_roi_input(bone)
        with stage("localize"):
            box, confidence = predict_roi(self.roi_model, prepared)
        with stage("crop"):
            crop = crop_roi(
                prepared, box, self.config.age.input_size[0], self.config.age.input_size[1]
            )
        with stage("age"):
            estimate = estimate_age(self.age_model, crop, self.atlas)
        if dump_dir is not None:
            dump_dir = Path(dump_dir)
            dump_dir.mkdir(parents=True, exist_ok=True)
            save_image(mask, dump_dir / "mask.pgm")
            save_image(bone, dump_dir / "bone.pgm")
            save_image(prepared, dump_dir / "prepared.pgm")
            save_image(crop, dump_dir / "crop.pgm")
        return PredictionRecord(
            image_path=image_path,
            age_months=estimate.age_months,
            nearest_class=estimate.nearest_class,
            confidence=confidence,
            low_confidence=confidence < self.config.confidence_threshold,
            empty_mask=not np.any(mask.pixels >= self.seg_model.config.threshold),
        )

    def predict_path(self, image_path, dump_dir: Optional[Path] = None) -> PredictionRecord:
        with stage("load"):
            img = load_image(image_path)
        return self.predict_image(img, image_path=str(image_path), dump_dir=dump_dir)
