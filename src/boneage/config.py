"""Plain-text configuration for the pipeline and CLI.

Config files are INI-style ``key = value`` sections. Every value has a
default, so an empty (or absent) file is a full configuration; CLI
flags override their corresponding keys.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Tuple

from .age_estimation import AgeConfig
from .augmentation import AugmentationSpec
from .errors import ConfigError
from .roi import RpnConfig
from .segmentation import UNetConfig


@dataclass(frozen=True)
class TrainSettings:
    epochs: int
    learning_rate: float
    batch_size: int

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class PhantomSettings:
    image_size: Tuple[int, int] = (96, 64)
    noise_level: float = 0.02
    train_count: int = 200
    holdout_count: int = 50
    negative_fraction: float = 0.25


@dataclass
class PipelineConfig:
    """Everything the pipeline and CLI need, with usable defaults."""

    seed: int = 0
    out_dir: Path = Path("out")
    seg_checkpoint: Path = Path("out/seg.ckpt")
    roi_checkpoint: Path = Path("out/roi.ckpt")
    age_checkpoint: Path = Path("out/age.ckpt")
    atlas_manifest: Path = Path("out/atlas/atlas.txt")
    confidence_threshold: float = 0.5
    augmentation: AugmentationSpec = field(default_factory=AugmentationSpec)
    unet: UNetConfig = field(default_factory=UNetConfig)
    rpn: RpnConfig = field(default_factory=RpnConfig)
    age: AgeConfig = field(default_factory=AgeConfig)
    seg_train: TrainSettings = TrainSettings(epochs=40, learning_rate=1e-3, batch_size=16)
    roi_train: TrainSettings = TrainSettings(epochs=60, learning_rate=2e-3, batch_size=8)
    age_train: TrainSettings = TrainSettings(epochs=60, learning_rate=2e-3, batch_size=8)
    phantom: PhantomSettings = PhantomSettings()


class _Reader:
    """Typed accessors over one parsed section with error context."""

    def __init__(self, parser: configparser.ConfigParser, section: str):
        self.section = section
        self.items = dict(parser.items(section)) if parser.has_section(section) else {}

    def _take(self, key: str, conv, default):
        if key not in self.items:
            return default
        raw = self.items.pop(key)
        try:
            return conv(raw)
        except (ValueError, TypeError):
            raise ConfigError(f"[{self.section}] {key}: cannot parse {raw!r}") from None

    def get_int(self, key: str, default: int) -> int:
        return self._take(key, int, default)

    def get_float(self, key: str, default: float) -> float:
        return self._take(key, float, default)

    def get_path(self, key: str, default: Path, base: Optional[Path]) -> Path:
        raw = self._take(key, str, None)
        if raw is None:
            return default
        p = Path(raw).expanduser()
        if base is not None and not p.is_absolute():
            p = base / p
        return p

    def get_floats(self, key: str, default: Tuple[float, ...]) -> Tuple[float, ...]:
        return self._take(
            key, lambda raw: tuple(float(v) for v in raw.split(",") if v.strip()), default
        )

    def get_ints(self, key: str, default: Tuple[int, ...]) -> Tuple[int, ...]:
        return self._take(
            key, lambda raw: tuple(int(v) for v in raw.split(",") if v.strip()), default
        )

    def get_bools(self, key: str, default: Tuple[bool, ...]) -> Tuple[bool, ...]:
        def conv(raw):
            out = []
            for v in raw.split(","):
                v = v.strip().lower()
                if not v:
                    continue
                if v in ("true", "yes", "1", "on"):
                    out.append(True)
                elif v in ("false", "no", "0", "off"):
                    out.append(False)
                else:
                    raise ValueError(v)
            return tuple(out)

        return self._take(key, conv, default)

    def reject_unknown(self) -> None:
        if self.items:
            raise ConfigError(
                f"[{self.section}] unknown keys: {', '.join(sorted(self.items))}"
            )


_KNOWN_SECTIONS = (
    "paths", "pipeline", "augmentation", "segmentation", "roi", "age", "phantom",
)


def load_config(path=None) -> PipelineConfig:
    """Build a PipelineConfig from an INI file (or pure defaults).

    Relative paths in the file resolve against the file's directory.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    base: Optional[Path] = None
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config {path}: {exc}") from exc
        unknown = set(parser.sections()) - set(_KNOWN_SECTIONS)
        if unknown:
            raise ConfigError(f"unknown config sections: {', '.join(sorted(unknown))}")
        base = path.parent.resolve()

    defaults = PipelineConfig()

    paths = _Reader(parser, "paths")
    out_dir = paths.get_path("out_dir", defaults.out_dir, base)
    cfg_paths = dict(
        out_dir=out_dir,
        seg_checkpoint=paths.get_path("seg_checkpoint", out_dir / "seg.ckpt", base),
        roi_checkpoint=paths.get_path("roi_checkpoint", out_dir / "roi.ckpt", base),
        age_checkpoint=paths.get_path("age_checkpoint", out_dir / "age.ckpt", base),
        atlas_manifest=paths.get_path("atlas_manifest", out_dir / "atlas" / "atlas.txt", base),
    )
    paths.reject_unknown()

    pipe = _Reader(parser, "pipeline")
    seed = pipe.get_int("seed", defaults.seed)
    confidence_threshold = pipe.get_float(
        "confidence_threshold", defaults.confidence_threshold
    )
    pipe.reject_unknown()

    aug = _Reader(parser, "augmentation")
    augmentation = AugmentationSpec(
        shift_stride=aug.get_int("shift_stride", 10),
        shift_counts_x=aug.get_int("shift_counts_x", 4),
        shift_counts_y=aug.get_int("shift_counts_y", 3),
        rotations=aug.get_floats("rotations", (0.0, 15.0)),
        flips=aug.get_bools("flips", (False, True)),
    )
    aug.reject_unknown()

    seg = _Reader(parser, "segmentation")
    unet = UNetConfig(
        depth=seg.get_int("depth", 3),
        base_channels=seg.get_int("base_channels", 8),
        input_size=(seg.get_int("input_width", 96), seg.get_int("input_height", 64)),
        threshold=seg.get_float("threshold", 0.5),
    )
    seg_train = TrainSettings(
        epochs=seg.get_int("epochs", defaults.seg_train.epochs),
        learning_rate=seg.get_float("learning_rate", defaults.seg_train.learning_rate),
        batch_size=seg.get_int("batch_size", defaults.seg_train.batch_size),
    )
    seg.reject_unknown()

    roi = _Reader(parser, "roi")
    rpn = RpnConfig(
        backbone_channels=roi.get_ints("channels", (8, 16, 32)),
        input_size=(roi.get_int("input_width", 96), roi.get_int("input_height", 128)),
        hidden=roi.get_int("hidden", 64),
    )
    roi_train = TrainSettings(
        epochs=roi.get_int("epochs", defaults.roi_train.epochs),
        learning_rate=roi.get_float("learning_rate", defaults.roi_train.learning_rate),
        batch_size=roi.get_int("batch_size", defaults.roi_train.batch_size),
    )
    roi.reject_unknown()

    age_r = _Reader(parser, "age")
    age = AgeConfig(
        input_size=(age_r.get_int("crop_width", 64), age_r.get_int("crop_height", 64)),
        backbone_channels=age_r.get_ints("channels", (8, 16, 32)),
        hidden=age_r.get_int("hidden", 64),
        num_classes=age_r.get_int("num_classes", 12),
    )
    age_train = TrainSettings(
        epochs=age_r.get_int("epochs", defaults.age_train.epochs),
        learning_rate=age_r.get_float("learning_rate", defaults.age_train.learning_rate),
        batch_size=age_r.get_int("batch_size", defaults.age_train.batch_size),
    )
    age_r.reject_unknown()

    ph = _Reader(parser, "phantom")
    phantom = PhantomSettings(
        image_size=(ph.get_int("width", 96), ph.get_int("height", 64)),
        noise_level=ph.get_float("noise_level", 0.02),
        train_count=ph.get_int("train_count", 200),
        holdout_count=ph.get_int("holdout_count", 50),
        negative_fraction=ph.get_float("negative_fraction", 0.25),
    )
    ph.reject_unknown()

    return PipelineConfig(
        seed=seed,
        confidence_threshold=confidence_threshold,
        augmentation=augmentation,
        unet=unet,
        rpn=rpn,
        age=age,
        seg_train=seg_train,
        roi_train=roi_train,
        age_train=age_train,
        phantom=phantom,
        **cfg_paths,
    )
