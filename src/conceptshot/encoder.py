"""Feature encoder: a stack of affine + leaky-relu layers over feature vectors,
partitioned into a low part (frozen during episode adaptation) and a high part
(adapted per task together with the emitted classifier)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .tensor import Rng, Tensor, glorot_uniform


@dataclass
class EncoderConfig:
    input_dim: int
    widths: list = field(default_factory=lambda: [64, 64, 64, 64])
    low_layers: int = 2          # first L layers stay frozen in the inner loop
    slope: float = 0.1

    def __post_init__(self):
        if self.input_dim < 1:
            raise ConfigError(f"encoder input_dim must be positive, got {self.input_dim}")
        if any(w < 1 for w in self.widths):
            raise ConfigError(f"encoder widths must be positive, got {self.widths}")
        if not (0 <= self.low_layers <= len(self.widths)):
            raise ConfigError(
                f"low_layers={self.low_layers} outside [0, {len(self.widths)}]")

    @property
    def feature_dim(self):
        return self.widths[-1] if self.widths else self.input_dim


def init_encoder(cfg: EncoderConfig, rng: Rng) -> dict:
    """Glorot-uniform weights, zero biases; keys 'enc.<i>.W' / 'enc.<i>.b'."""
    params = {}
    d = cfg.input_dim
    for i, w in enumerate(cfg.widths):
        params[f"enc.{i}.W"] = glorot_uniform(rng, d, w)
        params[f"enc.{i}.b"] = Tensor(np.zeros(w), requires_grad=True)
        d = w
    return params


def layer_pairs(params: dict, cfg: EncoderConfig):
    return [(params[f"enc.{i}.W"], params[f"enc.{i}.b"]) for i in range(len(cfg.widths))]


def high_pairs(params: dict, cfg: EncoderConfig):
    """The (W, b) tensors the inner loop adapts."""
    return layer_pairs(params, cfg)[cfg.low_layers:]
