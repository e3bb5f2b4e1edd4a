"""Bone-age estimation from elbow radiographs, trained on procedural phantoms.

Four stages share one small tensor/autodiff engine: deterministic
dataset augmentation, bone segmentation, joint localization, and
reference-class age estimation. See the README for the CLI surface.
"""

from .age_estimation import (
    AgeConfig,
    AgeEstimate,
    AgeModel,
    AtlasEntry,
    ReferenceAtlas,
    build_age_model,
    estimate_age,
    load_atlas,
    save_atlas,
    train_age,
)
from .augmentation import AugmentationSpec, LabeledImage, augment_dataset, enumerate_variants
from .config import PipelineConfig, load_config
from .errors import (
    BoneAgeError,
    CheckpointError,
    ConfigError,
    ContractError,
    DimensionError,
    ImageIOError,
    StartupError,
    TrainingError,
)
from .imaging import (
    GrayImage,
    flip_horizontal,
    load_image,
    resize_bilinear,
    rotate,
    save_image,
    shift_crop,
)
from .metrics import MetricsReport, evaluate, mae, mape
from .phantom import PhantomSample, PhantomSpec, generate_dataset, generate_phantom
from .pipeline import Pipeline, PredictionRecord, run_pipeline
from .roi import RoiBox, RoiModel, RpnConfig, build_rpn, crop_roi, iou, predict_roi, prepare_roi_input, train_roi
from .segmentation import SegmentationModel, UNetConfig, build_unet, dice_score, segment, train_segmentation
from .tensor import Tape, Tensor

__version__ = "0.1.0"

__all__ = [
    "AgeConfig", "AgeEstimate", "AgeModel", "AtlasEntry", "AugmentationSpec",
    "BoneAgeError", "CheckpointError", "ConfigError", "ContractError",
    "DimensionError", "GrayImage", "ImageIOError", "LabeledImage",
    "MetricsReport", "PhantomSample", "PhantomSpec", "Pipeline",
    "PipelineConfig", "PredictionRecord", "ReferenceAtlas", "RoiBox",
    "RoiModel", "RpnConfig", "SegmentationModel", "StartupError", "Tape",
    "Tensor", "TrainingError", "UNetConfig", "augment_dataset",
    "build_age_model", "build_rpn", "build_unet", "crop_roi", "dice_score",
    "enumerate_variants", "estimate_age", "evaluate", "flip_horizontal", "generate_dataset", "generate_phantom", "iou",
    "load_atlas", "load_config", "load_image", "mae", "mape", "predict_roi",
    "prepare_roi_input", "resize_bilinear", "rotate", "run_pipeline",
    "save_atlas", "save_image", "segment", "shift_crop", "train_age",
    "train_roi", "train_segmentation",
]
