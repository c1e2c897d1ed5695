"""Feature encoder: a stack of affine + leaky-relu layers over feature vectors,
partitioned into a low part (frozen during episode adaptation) and a high part
(adapted per task together with the emitted classifier): ``tensor`` layers
named under ``PREFIX``."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, require_at_least, require_types
from .tensor import layer_names

PREFIX = "enc"                   # parameter names 'enc.<i>.W' / 'enc.<i>.b'


@dataclass
class EncoderConfig:
    input_dim: int
    widths: list = field(default_factory=lambda: [64, 64, 64, 64])
    low_layers: int = 2          # first L layers stay frozen in the inner loop
    slope: float = 0.1

    def __post_init__(self):
        require_types(self, "encoder", widths="int")
        require_at_least(self, "encoder", 1, "input_dim")
        if any(w < 1 for w in self.widths):
            raise ConfigError(f"encoder.widths must be positive, got {self.widths}")
        if not (0 <= self.low_layers <= len(self.widths)):
            raise ConfigError(f"encoder.low_layers must be in [0, {len(self.widths)}], "
                              f"got {self.low_layers}")

    @property
    def feature_dim(self):
        return self.widths[-1] if self.widths else self.input_dim


def layer_pairs(params: dict, cfg: EncoderConfig):
    return [(params[w], params[b]) for w, b in layer_names(PREFIX, len(cfg.widths))]
