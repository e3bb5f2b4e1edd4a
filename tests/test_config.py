"""INI configuration loading: defaults, overrides, and strictness."""

import configparser
import dataclasses
import re
from pathlib import Path

import pytest

from boneage import cli
from boneage.age_estimation import AgeConfig
from boneage.augmentation import AugmentationSpec
from boneage.config import (
    _SCHEMA,
    PhantomSettings,
    PipelineConfig,
    TrainSettings,
    load_config,
    rebase_out,
)
from boneage.errors import ConfigError
from boneage.roi import RpnConfig
from boneage.segmentation import UNetConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def test_defaults_without_a_file():
    cfg = load_config()
    assert cfg.seed == 0
    assert cfg.out_dir == Path("out")
    assert cfg.seg_checkpoint == Path("out/seg.ckpt")
    assert cfg.confidence_threshold == 0.5
    assert cfg.unet.depth == 3
    assert cfg.rpn.input_size == (96, 128)
    assert cfg.augmentation == AugmentationSpec()
    assert cfg.phantom.train_count == 200


def test_empty_file_equals_defaults(tmp_path):
    p = tmp_path / "empty.ini"
    p.write_text("")
    cfg = load_config(p)
    ref = PipelineConfig()
    assert cfg.seed == ref.seed
    assert cfg.unet == ref.unet
    assert cfg.rpn == ref.rpn
    assert cfg.age == ref.age
    # relative default paths resolve against the file's directory
    assert cfg.out_dir == Path("out")


def test_values_parse_into_typed_settings(tmp_path):
    p = tmp_path / "full.ini"
    p.write_text(
        """
[pipeline]
seed = 7
confidence_threshold = 0.25

[segmentation]
depth = 2
base_channels = 4
input_width = 32
input_height = 32
epochs = 5
learning_rate = 0.01
batch_size = 2

[augmentation]
shift_stride = 5
rotations = 0, 10.5
flips = false

[phantom]
width = 48
height = 40
noise_level = 0.0
"""
    )
    cfg = load_config(p)
    assert cfg.seed == 7
    assert cfg.confidence_threshold == 0.25
    assert cfg.unet.depth == 2
    assert cfg.unet.input_size == (32, 32)
    assert cfg.seg_train == TrainSettings(epochs=5, learning_rate=0.01, batch_size=2)
    assert cfg.augmentation.shift_stride == 5
    assert cfg.augmentation.rotations == (0.0, 10.5)
    assert cfg.augmentation.flips == (False,)
    assert cfg.phantom.image_size == (48, 40)
    assert cfg.phantom.noise_level == 0.0


def test_relative_paths_resolve_against_the_file(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text("[paths]\nout_dir = artifacts\nseg_checkpoint = ckpt/seg.bin\n")
    cfg = load_config(p)
    assert cfg.out_dir == tmp_path / "artifacts"
    assert cfg.seg_checkpoint == tmp_path / "ckpt" / "seg.bin"
    # unset checkpoint paths hang off the chosen out_dir
    assert cfg.roi_checkpoint == tmp_path / "artifacts" / "roi.ckpt"


def test_absolute_paths_pass_through(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text(f"[paths]\nout_dir = {tmp_path}/abs_out\n")
    cfg = load_config(p)
    assert cfg.out_dir == tmp_path / "abs_out"


def test_missing_file_is_an_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.ini")


def test_unknown_section_rejected(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text("[rendering]\nquality = 9\n")
    with pytest.raises(ConfigError, match="rendering"):
        load_config(p)


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "cfg.ini"
    # a misspelling, the class count the atlas table now fixes, and the
    # atlas manifest path (the atlas is no file)
    for section, key, value in [
        ("segmentation", "dephts", 3),
        ("age", "num_classes", 12),
        ("paths", "atlas_manifest", "atlas/atlas.txt"),
    ]:
        p.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=rf"\[{section}\] unknown keys: {key}"):
            load_config(p)


def test_unparsable_value_names_section_and_key(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text("[pipeline]\nseed = soon\n")
    with pytest.raises(ConfigError, match=r"\[pipeline\] seed"):
        load_config(p)


@pytest.mark.parametrize("raw", ["5%", "%(seed)s"])
def test_percent_in_a_value_names_section_and_key(tmp_path, raw):
    p = tmp_path / "cfg.ini"
    p.write_text(f"[pipeline]\nseed = {raw}\n")
    with pytest.raises(ConfigError, match=re.escape(f"[pipeline] seed: cannot parse {raw!r}")):
        load_config(p)


@pytest.mark.parametrize(
    "section, key, raw, message",
    [
        ("roi", "channels", "0, -4", "backbone_channels must all be >= 1"),
        ("age", "channels", "8, 0, 32", "backbone_channels must all be >= 1"),
        ("roi", "hidden", "0", "hidden must be >= 1, got 0"),
        ("age", "hidden", "-3", "hidden must be >= 1, got -3"),
    ],
)
def test_trunk_widths_below_one_rejected_at_load(tmp_path, section, key, raw, message):
    p = tmp_path / "cfg.ini"
    p.write_text(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(ConfigError, match=message):
        load_config(p)


def test_invalid_geometry_propagates_as_config_error(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text("[segmentation]\ninput_width = 100\n")  # 100 % 8 != 0
    with pytest.raises(ConfigError, match="divisible"):
        load_config(p)


def test_malformed_ini_reports_the_file(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text("pipeline]\nseed = 1\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        load_config(p)


def test_inline_comments_are_stripped(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text("[pipeline]\nseed = 9  # reproducibility\n")
    assert load_config(p).seed == 9


@pytest.mark.parametrize(
    "key, raw, message",
    [
        ("seed", "-2", "seed must be >= 0, got -2"),
        ("confidence_threshold", "7", "confidence_threshold must be in [0, 1], got 7.0"),
        ("confidence_threshold", "-0.1", "confidence_threshold must be in [0, 1], got -0.1"),
        ("confidence_threshold", "nan", "confidence_threshold must be in [0, 1], got nan"),
    ],
    ids=["negative-seed", "threshold-above-1", "threshold-below-0", "threshold-nan"],
)
def test_out_of_range_pipeline_settings_rejected(tmp_path, key, raw, message):
    p = tmp_path / "cfg.ini"
    p.write_text(f"[pipeline]\n{key} = {raw}\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        load_config(p)


def test_pipeline_settings_at_their_bounds_load(tmp_path):
    p = tmp_path / "cfg.ini"
    for threshold in (0, 1):
        p.write_text(f"[pipeline]\nseed = 0\nconfidence_threshold = {threshold}\n")
        cfg = load_config(p)
        assert (cfg.seed, cfg.confidence_threshold) == (0, threshold)


def test_train_settings_validation():
    with pytest.raises(ConfigError):
        TrainSettings(epochs=-1, learning_rate=0.1, batch_size=1)
    with pytest.raises(ConfigError):
        TrainSettings(epochs=1, learning_rate=0.0, batch_size=1)
    with pytest.raises(ConfigError):
        TrainSettings(epochs=1, learning_rate=0.1, batch_size=0)


def test_zero_epochs_rejected():
    with pytest.raises(ConfigError, match="epochs must be >= 1, got 0"):
        TrainSettings(epochs=0, learning_rate=0.1, batch_size=1)


def test_defaults_are_the_dataclass_defaults(tmp_path):
    p = tmp_path / "empty.ini"
    p.write_text("")
    assert load_config() == PipelineConfig()
    assert load_config(p) == PipelineConfig()


# every schema key at a value that differs from its default, and from
# every neighbouring field's value, so a row aimed at the wrong field shows
EVERY_KEY_INI = """
[paths]
out_dir = o
seg_checkpoint = c/seg.bin
roi_checkpoint = c/roi.bin
age_checkpoint = c/age.bin

[pipeline]
seed = 7
confidence_threshold = 0.25

[augmentation]
shift_stride = 5
shift_counts_x = 2
shift_counts_y = 5
rotations = 0, 10.5
flips = yes

[segmentation]
depth = 2
base_channels = 4
input_width = 48
input_height = 32
threshold = 0.4
epochs = 5
learning_rate = 0.01
batch_size = 2

[roi]
channels = 4, 8
input_width = 64
input_height = 48
hidden = 16
epochs = 6
learning_rate = 0.02
batch_size = 3

[age]
crop_width = 32
crop_height = 48
channels = 2, 4, 8
hidden = 24
epochs = 7
learning_rate = 0.03
batch_size = 5

[phantom]
width = 56
height = 40
noise_level = 0.1
train_count = 11
holdout_count = 6
negative_fraction = 0.5
"""


def _leaves(obj, prefix=""):
    if not dataclasses.is_dataclass(obj):
        return {prefix: obj}
    out = {}
    for f in dataclasses.fields(obj):
        out.update(_leaves(getattr(obj, f.name), f"{prefix}.{f.name}"))
    return out


def test_every_schema_key_sets_its_own_field(tmp_path):
    p = tmp_path / "every.ini"
    p.write_text(EVERY_KEY_INI)
    parser = configparser.ConfigParser()
    parser.read_string(EVERY_KEY_INI)
    assert {s: set(parser[s]) for s in parser.sections()} == {
        s: set(keys) for s, keys in _SCHEMA.items()
    }
    c = tmp_path / "c"
    want = PipelineConfig(
        seed=7,
        out_dir=tmp_path / "o",
        seg_checkpoint=c / "seg.bin",
        roi_checkpoint=c / "roi.bin",
        age_checkpoint=c / "age.bin",
        confidence_threshold=0.25,
        augmentation=AugmentationSpec(
            shift_stride=5, shift_counts_x=2, shift_counts_y=5,
            rotations=(0.0, 10.5), flips=(True,),
        ),
        unet=UNetConfig(depth=2, base_channels=4, input_size=(48, 32), threshold=0.4),
        rpn=RpnConfig(backbone_channels=(4, 8), input_size=(64, 48), hidden=16),
        age=AgeConfig(input_size=(32, 48), backbone_channels=(2, 4, 8), hidden=24),
        seg_train=TrainSettings(epochs=5, learning_rate=0.01, batch_size=2),
        roi_train=TrainSettings(epochs=6, learning_rate=0.02, batch_size=3),
        age_train=TrainSettings(epochs=7, learning_rate=0.03, batch_size=5),
        phantom=PhantomSettings(
            image_size=(56, 40), noise_level=0.1, train_count=11,
            holdout_count=6, negative_fraction=0.5,
        ),
    )
    defaults = _leaves(PipelineConfig())
    assert all(v != defaults[k] for k, v in _leaves(want).items())
    assert load_config(p) == want


def test_readme_example_loads(tmp_path):
    blocks = re.findall(r"```ini\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    p = tmp_path / "readme.ini"
    p.write_text(blocks[0])
    cfg = load_config(p)
    assert cfg.out_dir == tmp_path / "runs" / "a"
    assert cfg.seg_checkpoint == tmp_path / "runs" / "a" / "seg.ckpt"


def test_rebase_moves_only_paths_under_out_dir():
    cfg = PipelineConfig(seg_checkpoint=Path("/elsewhere/seg.ckpt"))
    rebase_out(cfg, Path("new"))
    assert cfg.out_dir == Path("new")
    assert cfg.seg_checkpoint == Path("/elsewhere/seg.ckpt")
    assert cfg.roi_checkpoint == Path("new/roi.ckpt")


def test_out_flag_leaves_artifacts_outside_out_dir_alone(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text(f"[paths]\nout_dir = run\nseg_checkpoint = {tmp_path}/keep/seg.ckpt\n")
    args = cli._build_parser().parse_args(
        ["selftest", "--config", str(p), "--out", str(tmp_path / "new")]
    )
    cfg = cli._load_config(args)
    assert cfg.out_dir == tmp_path / "new"
    assert cfg.seg_checkpoint == tmp_path / "keep" / "seg.ckpt"
    assert cfg.roi_checkpoint == tmp_path / "new" / "roi.ckpt"
