"""Shared building blocks for the three networks.

A model is an ``nn.Model``: its config (the network's geometry) plus a
dict of named parameter Tensors. These helpers cover He-uniform
initialization (or, with no seed, zero placeholders for a checkpoint to
fill), the conv+relu blocks everything is assembled from, the VGG-style
net, the stacking of net-size images into a batch (``planes``), and the
one training loop.

The localizer and the age net are one ``VggConfig`` net (Simonyan &
Zisserman, arXiv:1409.1556) that differs only in its heads: ``block{i}``
double-conv blocks, each followed by a 2x2 max-pool, then ``relu(fc)``
and one dense layer per named head. ``fit`` runs every network's
training from its ``TrainSettings``: shuffled minibatches
(``minibatches``), a fresh tape per step, a finite-loss check, one Adam
``optimizer_step``, and the epoch mean handed to ``log_fn``; it returns
the parameters averaged over the later half of the epoch ends, never
NaN or inf ones. Both loop calls go through this module's names, so
code that rebinds them (the benchmark's step clock and tracer) sees
every step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .errors import ConfigError, DimensionError, TrainingError
from .imaging import GrayImage
from .optim import OptimizerState, TrainSettings, optimizer_step, zero_grads
from .tensor import Tape, Tensor


@dataclass
class Model:
    """One network: ``config`` fixes its geometry, ``params`` its weights."""

    config: Any
    params: Dict[str, Tensor]


def init_rng(seed: Optional[int]) -> Optional[np.random.Generator]:
    """The generator a seeded build draws from. With no seed, builds make
    zero placeholders and never import ``numpy.random``: a model restored
    from its checkpoint does not pay for draws it overwrites."""
    return None if seed is None else np.random.default_rng(seed)


def he_uniform(rng: Optional[np.random.Generator], shape: Sequence[int], fan_in: int) -> np.ndarray:
    if rng is None:
        # a read-only zero view that holds no memory; restore_params replaces it
        return np.broadcast_to(np.float32(0), tuple(shape))
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=tuple(shape)).astype(np.float32)


def init_conv(
    params: Dict[str, Tensor],
    rng: Optional[np.random.Generator],
    name: str,
    out_ch: int,
    in_ch: int,
    k: int = 3,
) -> None:
    """Register weight/bias for one conv layer under ``name``."""
    fan_in = in_ch * k * k
    params[f"{name}.w"] = Tensor(he_uniform(rng, (out_ch, in_ch, k, k), fan_in), requires_grad=True)
    params[f"{name}.b"] = Tensor(np.zeros(out_ch, dtype=np.float32), requires_grad=True)


def init_dense(
    params: Dict[str, Tensor],
    rng: Optional[np.random.Generator],
    name: str,
    in_dim: int,
    out_dim: int,
) -> None:
    params[f"{name}.w"] = Tensor(he_uniform(rng, (in_dim, out_dim), in_dim), requires_grad=True)
    params[f"{name}.b"] = Tensor(np.zeros(out_dim, dtype=np.float32), requires_grad=True)


def conv_block(x: Tensor, params: Dict[str, Tensor], name: str) -> Tensor:
    """Two padded 3x3 conv+relu layers, the standard double-conv block."""
    for conv in ("conv1", "conv2"):
        w, b = params[f"{name}.{conv}.w"], params[f"{name}.{conv}.b"]
        x = T.conv2d(x, w, b, stride=1, padding=1, relu=True)
    return x


def init_conv_block(
    params: Dict[str, Tensor],
    rng: Optional[np.random.Generator],
    name: str,
    in_ch: int,
    out_ch: int,
) -> None:
    init_conv(params, rng, f"{name}.conv1", out_ch, in_ch)
    init_conv(params, rng, f"{name}.conv2", out_ch, out_ch)


class InputPlane:
    """``width`` and ``height`` of a network config's ``input_size``."""

    input_size: Tuple[int, int]

    @property
    def width(self) -> int:
        return self.input_size[0]

    @property
    def height(self) -> int:
        return self.input_size[1]


def check_divisible(input_size: Tuple[int, int], pools: int) -> None:
    """Both input extents must survive ``pools`` 2x2 max-pools exactly."""
    w, h = input_size
    div = 2 ** pools
    if w % div or h % div:
        raise ConfigError(f"input extents {w}x{h} must be divisible by {div}")


def check_input(x: Tensor, width: int, height: int) -> None:
    """The networks take a (N, 1, height, width) batch."""
    if x.data.ndim != 4 or x.data.shape[1] != 1:
        raise DimensionError(f"expected (N, 1, H, W) input, got {x.shape}")
    if x.data.shape[2] != height or x.data.shape[3] != width:
        raise DimensionError(
            f"expected {height}x{width} input plane, got "
            f"{x.data.shape[2]}x{x.data.shape[3]}"
        )


def planes(images: Sequence[GrayImage], config: InputPlane) -> np.ndarray:
    """Stack images of the net's ``config.input_size`` into an (N, 1,
    height, width) float32 batch; any other size raises a DimensionError
    naming the sample."""
    batch = np.empty((len(images), 1, config.height, config.width), dtype=np.float32)
    for i, img in enumerate(images):
        if (img.width, img.height) != config.input_size:
            raise DimensionError(
                f"sample {i}: expected a {config.width}x{config.height} image, "
                f"got {img.width}x{img.height}"
            )
        batch[i, 0] = img.pixels
    return batch


@dataclass(frozen=True)
class VggConfig(InputPlane):
    """Geometry of a VGG-style net: one double-conv block per
    ``backbone_channels`` entry, then ``hidden`` relu(fc) features."""

    input_size: Tuple[int, int]
    backbone_channels: Tuple[int, ...] = (8, 16, 32)
    hidden: int = 64

    def __post_init__(self):
        channels = self.backbone_channels
        if not channels:
            raise ConfigError("backbone_channels is empty")
        if min(channels) < 1:
            raise ConfigError(f"backbone_channels must all be >= 1, got {channels}")
        if self.hidden < 1:
            raise ConfigError(f"hidden must be >= 1, got {self.hidden}")
        check_divisible(self.input_size, len(channels))


def build_vgg(config: VggConfig, heads: Dict[str, int], seed: Optional[int]) -> Model:
    """Register the conv blocks, ``fc`` and one dense layer per ``heads``
    entry (name -> width), in that draw order; with ``seed`` None the
    parameters are zeros for ``restore_params`` to fill."""
    rng = init_rng(seed)
    params: Dict[str, Tensor] = {}
    in_ch = 1
    for i, out_ch in enumerate(config.backbone_channels):
        init_conv_block(params, rng, f"block{i}", in_ch, out_ch)
        in_ch = out_ch
    div = 2 ** len(config.backbone_channels)
    init_dense(params, rng, "fc", in_ch * (config.width // div) * (config.height // div), config.hidden)
    for name, width in heads.items():
        init_dense(params, rng, name, config.hidden, width)
    return Model(config, params)


def vgg_forward(model: Model, x: Tensor, heads: Iterable[str]) -> Tuple[Tensor, ...]:
    """Run the blocks with pooling and relu(fc) on an (N, 1, height,
    width) batch; returns the named heads' dense outputs, in order."""
    cfg, p = model.config, model.params
    check_input(x, cfg.width, cfg.height)
    t = x
    for i in range(len(cfg.backbone_channels)):
        t = T.max_pool2d(conv_block(t, p, f"block{i}"))
    t = T.relu(T.dense(T.flatten(t), p["fc.w"], p["fc.b"]))
    return tuple(T.dense(t, p[f"{name}.w"], p[f"{name}.b"]) for name in heads)


def minibatches(n: int, batch_size: int, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """Shuffled index batches covering 0..n-1 once."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start : start + batch_size]


def fit(
    params: Dict[str, Tensor],
    n: int,
    loss_fn: Callable[[np.ndarray], Tensor],
    settings: TrainSettings,
    seed: int,
    label: str,
    log_fn: Optional[Callable[[str], None]] = None,
) -> List[float]:
    """Minimize ``loss_fn(batch indices)`` over ``n`` samples; returns the
    mean loss per epoch.

    ``loss_fn`` runs under the step's tape and returns the scalar loss.
    ``label`` names the stage in the per-epoch log line and in the
    TrainingError raised when there is no sample, a batch loss stops
    being finite, or the weights it would return hold NaN or inf (the
    last step's update has no later loss to show it).

    The parameters come back as the mean of their epoch-end values from
    epoch ``epochs // 2`` on (the last epoch's alone for one or two
    epochs), kept as a running float32 mean: averaged weights (SWA,
    Izmailov et al. 2018) depend less on the last bits of any one step's
    sums. The history, and ``log_fn``, report the live weights' mean
    batch loss.
    """
    if n < 1:
        raise TrainingError(f"{label} training needs at least one sample")
    rng = np.random.default_rng(seed)
    state = OptimizerState(learning_rate=settings.learning_rate)
    history: List[float] = []
    first_averaged = settings.epochs // 2
    mean: Dict[str, np.ndarray] = {}
    for epoch in range(settings.epochs):
        total = 0.0
        batches = 0
        for idx in minibatches(n, settings.batch_size, rng):
            zero_grads(params)
            with Tape() as tape:
                l = loss_fn(idx)
                tape.backward(l)
            value = float(l.data)
            if not np.isfinite(value):
                raise TrainingError(f"{label} loss became {value} at epoch {epoch}, batch {batches}")
            optimizer_step(params, state)
            total += value
            batches += 1
        history.append(total / batches)
        if log_fn is not None:
            log_fn(f"{label} epoch {epoch + 1}/{settings.epochs} loss {history[-1]:.5f}")
        k = epoch - first_averaged + 1
        for name, p in params.items():
            if k == 1:
                mean[name] = p.data.copy()
            elif k > 1:
                mean[name] += (p.data - mean[name]) / np.float32(k)
    # a float64 sum of float32 values is finite exactly when every value is,
    # and it allocates no mask: isfinite masks here slowed the U-Net steps
    # of later fits by about a tenth (the benchmark's `train` p90)
    for name, value in mean.items():
        if not np.isfinite(value.sum(dtype=np.float64)):
            raise TrainingError(f"{label} training ended with NaN or inf in parameter {name!r}")
    for name, p in params.items():
        p.data = mean[name]
    return history
