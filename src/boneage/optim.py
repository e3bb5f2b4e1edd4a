"""Training recipes and the parameter update.

``TrainSettings`` is one network's whole training recipe: epochs,
learning rate and minibatch size. ``optimizer_step`` applies the Adam
update (Kingma & Ba, arXiv:1412.6980) to every parameter that holds a
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .errors import ConfigError, ContractError, TrainingError
from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass(frozen=True)
class TrainSettings:
    epochs: int
    learning_rate: float
    batch_size: int

    def __post_init__(self):
        if self.epochs < 1:
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass
class OptimizerState:
    """Per-run optimizer state; moment buffers are keyed by parameter name."""

    learning_rate: float
    step_count: int = 0
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ContractError("learning_rate must be positive")


def optimizer_step(params: Dict[str, Tensor], state: OptimizerState) -> None:
    """Apply one Adam step in place and bump state.step_count by one.

    First and second moment estimates with bias correction. Parameters
    whose ``.grad`` is None are skipped, so frozen or unused parameters
    cost nothing.
    """
    lr = np.float32(state.learning_rate)
    b1, b2 = np.float32(BETA1), np.float32(BETA2)
    state.step_count += 1
    t = state.step_count
    for name, p in params.items():
        if p.grad is None:
            continue
        g = np.asarray(p.grad, dtype=np.float32)
        if g.shape != p.data.shape:
            raise ContractError(
                f"gradient for {name!r} has shape {g.shape}, parameter is {p.data.shape}"
            )
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (np.float32(1.0) - b1) * g
        v *= b2
        v += (np.float32(1.0) - b2) * (g * g)
        m_hat = m / np.float32(1.0 - BETA1**t)
        v_hat = v / np.float32(1.0 - BETA2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + np.float32(EPS))


def zero_grads(params: Dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None
