"""The VGG-style net that the localizer and the age network share."""

import numpy as np
import pytest

from boneage.age_estimation import build_age_model
from boneage.checkpoint import save_checkpoint
from boneage.config import PipelineConfig
from boneage.errors import ConfigError
from boneage.nn import VggConfig
from boneage.roi import build_rpn

_TRUNK = [
    ("block0.conv1.w", (8, 1, 3, 3)), ("block0.conv1.b", (8,)),
    ("block0.conv2.w", (8, 8, 3, 3)), ("block0.conv2.b", (8,)),
    ("block1.conv1.w", (16, 8, 3, 3)), ("block1.conv1.b", (16,)),
    ("block1.conv2.w", (16, 16, 3, 3)), ("block1.conv2.b", (16,)),
    ("block2.conv1.w", (32, 16, 3, 3)), ("block2.conv1.b", (32,)),
    ("block2.conv2.w", (32, 32, 3, 3)), ("block2.conv2.b", (32,)),
]


def _fc_rows(net):
    """The flattened last block at the default geometry: 32 channels of
    maps three pools smaller than the input."""
    w, h = getattr(PipelineConfig(), net).input_size
    return 32 * (h // 8) * (w // 8)


# net -> (builder, its parameters at the default geometry in draw order,
# which is also the checkpoint manifest's order)
_NETS = {
    "rpn": (build_rpn, _TRUNK + [
        ("fc.w", (_fc_rows("rpn"), 64)), ("fc.b", (64,)),
        ("head_center.w", (64, 2)), ("head_center.b", (2,)),
        ("head_size.w", (64, 2)), ("head_size.b", (2,)),
        ("head_conf.w", (64, 1)), ("head_conf.b", (1,)),
    ]),
    "age": (build_age_model, _TRUNK + [
        ("fc.w", (_fc_rows("age"), 64)), ("fc.b", (64,)),
        ("head_class.w", (64, 12)), ("head_class.b", (12,)),
    ]),
}


@pytest.mark.parametrize("net", sorted(_NETS))
def test_vgg_config_validation(net):
    default = getattr(PipelineConfig(), net)
    w, h = default.input_size
    assert default == VggConfig(input_size=(w, h))
    assert (default.backbone_channels, default.hidden) == ((8, 16, 32), 64)
    with pytest.raises(ConfigError, match="backbone_channels is empty"):
        VggConfig(input_size=(w, h), backbone_channels=())
    with pytest.raises(ConfigError, match="backbone_channels must all be >= 1"):
        VggConfig(input_size=(w, h), backbone_channels=(8, 0))
    with pytest.raises(ConfigError, match="hidden must be >= 1, got 0"):
        VggConfig(input_size=(w, h), hidden=0)
    with pytest.raises(ConfigError, match="divisible by 8"):
        VggConfig(input_size=(w + 4, h))
    with pytest.raises(ConfigError, match="divisible by 8"):
        VggConfig(input_size=(w, h - 2))
    # two pools need only divisibility by 4
    assert VggConfig(input_size=(w + 4, h), backbone_channels=(4, 8)).width == w + 4


@pytest.mark.parametrize("net", sorted(_NETS))
def test_vgg_parameter_names_and_draws_in_order(net, tmp_path):
    build, want = _NETS[net]
    model = build(getattr(PipelineConfig(), net), seed=7)
    assert [(name, p.data.shape) for name, p in model.params.items()] == want
    # each weight is the next He-uniform draw of one generator; biases draw nothing
    rng = np.random.default_rng(7)
    for name, p in model.params.items():
        if name.endswith(".b"):
            assert not p.data.any()
            continue
        shape = p.data.shape
        fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
        limit = np.sqrt(6.0 / fan_in)
        assert p.data.tobytes() == rng.uniform(-limit, limit, size=shape).astype(np.float32).tobytes()
    path = tmp_path / f"{net}.ckpt"
    save_checkpoint(path, model.params)
    manifest = path.read_bytes().split(b"\n\n", 1)[0].decode("ascii").splitlines()[1:]
    assert [tuple(line.split()[:2]) for line in manifest] == [
        (name, "x".join(map(str, shape))) for name, shape in want
    ]
