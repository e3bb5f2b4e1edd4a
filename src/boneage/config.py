"""Plain-text configuration for the pipeline and CLI.

Config files are INI-style ``key = value`` sections; CLI flags override
their keys. Each setting and its default is declared once, as a field
of ``PipelineConfig`` or of a settings dataclass it holds, so an empty
(or absent) file gives ``PipelineConfig()``.

``_SCHEMA`` lists every valid section and key and the field each key
sets. A value is parsed by the type of that field's default: ``int``,
``float``, ``Path`` (relative to the file's directory), or a comma list
of ints, floats or booleans (true/yes/1/on, false/no/0/off).
Sub-configs are rebuilt with ``dataclasses.replace``, so their own
validation runs. Artifact paths not set in the file follow ``out_dir``,
by the same ``rebase_out`` rule that ``--out`` uses.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Tuple

from .augmentation import AugmentationSpec
from .errors import ConfigError
from .nn import VggConfig
from .optim import TrainSettings
from .segmentation import UNetConfig


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
    confidence_threshold: float = 0.5
    augmentation: AugmentationSpec = field(default_factory=AugmentationSpec)
    unet: UNetConfig = field(default_factory=UNetConfig)
    rpn: VggConfig = VggConfig(input_size=(64, 96))
    age: VggConfig = VggConfig(input_size=(32, 64))
    seg_train: TrainSettings = TrainSettings(epochs=40, learning_rate=1e-3, batch_size=16)
    roi_train: TrainSettings = TrainSettings(epochs=60, learning_rate=2e-3, batch_size=8)
    age_train: TrainSettings = TrainSettings(epochs=60, learning_rate=2e-3, batch_size=8)
    phantom: PhantomSettings = PhantomSettings()

    def __setattr__(self, name, value):
        # checked on every assignment: the INI loader and --seed set them
        # on a built config
        if name == "seed" and value < 0:
            raise ConfigError(f"seed must be >= 0, got {value}")
        if name == "confidence_threshold" and not 0.0 <= value <= 1.0:
            raise ConfigError(f"confidence_threshold must be in [0, 1], got {value}")
        super().__setattr__(name, value)


_ARTIFACTS = ("seg_checkpoint", "roi_checkpoint", "age_checkpoint")


def rebase_out(config: PipelineConfig, new_out: Path) -> None:
    """Move out_dir and every artifact path that lived under it."""
    for attr in _ARTIFACTS:
        try:
            setattr(config, attr, new_out / getattr(config, attr).relative_to(config.out_dir))
        except ValueError:
            pass  # explicitly configured outside out_dir; leave it alone
    config.out_dir = new_out


def _top(*names: str) -> Dict[str, tuple]:
    return {name: (name, None, None) for name in names}


def _fields(attr: str, *names: str) -> Dict[str, tuple]:
    return {name: (attr, name, None) for name in names}


def _size(attr: str, name: str, width_key: str, height_key: str) -> Dict[str, tuple]:
    return {width_key: (attr, name, 0), height_key: (attr, name, 1)}


_TRAIN_KEYS = ("epochs", "learning_rate", "batch_size")

# section -> INI key -> (PipelineConfig attribute, field of that sub-config
# or None, index into a (width, height) pair or None)
_SCHEMA = {
    "paths": _top("out_dir", *_ARTIFACTS),
    "pipeline": _top("seed", "confidence_threshold"),
    "augmentation": _fields(
        "augmentation", "shift_stride", "shift_counts_x", "shift_counts_y", "rotations", "flips"
    ),
    "segmentation": {
        **_fields("unet", "depth", "base_channels", "threshold"),
        **_size("unet", "input_size", "input_width", "input_height"),
        **_fields("seg_train", *_TRAIN_KEYS),
    },
    "roi": {
        "channels": ("rpn", "backbone_channels", None),
        **_size("rpn", "input_size", "input_width", "input_height"),
        **_fields("rpn", "hidden"),
        **_fields("roi_train", *_TRAIN_KEYS),
    },
    "age": {
        "channels": ("age", "backbone_channels", None),
        **_size("age", "input_size", "crop_width", "crop_height"),
        **_fields("age", "hidden"),
        **_fields("age_train", *_TRAIN_KEYS),
    },
    "phantom": {
        **_size("phantom", "image_size", "width", "height"),
        **_fields("phantom", "noise_level", "train_count", "holdout_count", "negative_fraction"),
    },
}

_BOOLS = {"true": True, "yes": True, "1": True, "on": True,
          "false": False, "no": False, "0": False, "off": False}


def _parse(section: str, key: str, raw: str, default, base: Path):
    """Read ``raw`` as the type of ``default``."""
    try:
        if isinstance(default, Path):
            p = Path(raw).expanduser()
            return p if p.is_absolute() else base / p
        if isinstance(default, tuple):
            if isinstance(default[0], bool):
                return tuple(_BOOLS[v.strip().lower()] for v in raw.split(",") if v.strip())
            return tuple(type(default[0])(v) for v in raw.split(",") if v.strip())
        return type(default)(raw)
    except (KeyError, ValueError, TypeError):
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from None


def _apply_section(parser, section: str, config: PipelineConfig, base: Path) -> None:
    """Set what one section configures; each sub-config is rebuilt once."""
    items = dict(parser.items(section)) if parser.has_section(section) else {}
    unknown = sorted(set(items) - set(_SCHEMA[section]))
    if unknown:
        raise ConfigError(f"[{section}] unknown keys: {', '.join(unknown)}")
    updates: Dict[str, Dict[str, Any]] = {}  # sub-config attribute -> {field: value}
    for key, (attr, name, index) in _SCHEMA[section].items():
        if key not in items:
            continue
        if name is None:
            value = _parse(section, key, items[key], getattr(config, attr), base)
            if attr == "out_dir":
                rebase_out(config, value)
            else:
                setattr(config, attr, value)
            continue
        fields = updates.setdefault(attr, {})
        current = fields.get(name, getattr(getattr(config, attr), name))
        if index is None:
            fields[name] = _parse(section, key, items[key], current, base)
        else:
            pair = list(current)
            pair[index] = _parse(section, key, items[key], current[index], base)
            fields[name] = tuple(pair)
    for attr, fields in updates.items():
        setattr(config, attr, replace(getattr(config, attr), **fields))


def load_config(path=None) -> PipelineConfig:
    """Build a PipelineConfig from an INI file (or pure defaults)."""
    config = PipelineConfig()
    if path is None:
        return config
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    # no interpolation: a '%' in a value reaches _parse and fails there,
    # naming its section and key
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    unknown = set(parser.sections()) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config sections: {', '.join(sorted(unknown))}")
    base = path.parent.resolve()
    for section in _SCHEMA:
        _apply_section(parser, section, config, base)
    return config
