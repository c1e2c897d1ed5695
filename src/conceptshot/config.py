"""One JSON document for a whole experiment.

Sections mirror the library's config dataclasses: ``paths``, ``data``,
``encoder``, ``generator``, ``train`` and ``eval``.  Everything has a default,
so ``{}`` is a valid file; unknown sections or keys are rejected with the
offending name.  Dotted command-line overrides (``train.seed=3``)
are applied to the raw dictionary before validation, so they win over file
values and show up in the saved effective config.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields

from .classifier_gen import GeneratorConfig
from .artifact import write_text_atomic
from .data import SynthConfig
from .encoder import EncoderConfig
from .errors import ConfigError
from .graph import ConceptGraph
from .meta import EvalConfig, Model, TrainConfig, require_types


@dataclass
class Paths:
    graph: str = "artifacts/graph.json"
    dataset: str = "artifacts/data.bin"
    checkpoint: str = "artifacts/model.ckpt"
    metrics: str = "artifacts/metrics.csv"
    eval_csv: str = "artifacts/eval-episodes.csv"


@dataclass
class ExperimentConfig:
    paths: Paths = field(default_factory=Paths)
    data: SynthConfig = field(default_factory=SynthConfig)
    encoder: EncoderConfig = None
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        if self.encoder is None:
            self.encoder = EncoderConfig(input_dim=self.data.input_dim)
        if self.encoder.input_dim != self.data.input_dim:
            raise ConfigError(
                f"encoder.input_dim={self.encoder.input_dim} does not match "
                f"data.input_dim={self.data.input_dim}")


_SECTIONS = {"paths": Paths, "data": SynthConfig, "encoder": EncoderConfig,
             "generator": GeneratorConfig, "train": TrainConfig,
             "eval": EvalConfig}
# the type of the entries of each section's list fields
_ENTRIES = {"data": {"sigma_levels": "float"}, "encoder": {"widths": "int"},
            "generator": {"embed_widths": "int", "relation_widths": "int"}}


def from_dict(d: dict) -> ExperimentConfig:
    """The validated config of a parsed JSON document: every field must hold
    a value of its declared type (see ``meta.require_types``), else
    ``ConfigError``."""
    if not isinstance(d, dict):
        raise ConfigError(f"a config must be a JSON object, got {type(d).__name__}")
    unknown = sorted(set(d) - set(_SECTIONS))
    if unknown:
        raise ConfigError(f"unknown config section(s): {', '.join(unknown)}")
    built = {}
    for name, cls in _SECTIONS.items():
        sub = d.get(name, {})
        if not isinstance(sub, dict):
            raise ConfigError(f"config section '{name}' must be an object, got {sub!r}")
        sub = dict(sub)
        allowed = {f.name for f in fields(cls)}
        bad = sorted(set(sub) - allowed)
        if bad:
            raise ConfigError(f"unknown config key(s): "
                              f"{', '.join(f'{name}.{k}' for k in bad)}")
        if name == "encoder":
            sub.setdefault("input_dim", built["data"].input_dim)
        if name == "train" and "level_weights" in sub:
            sub["level_weights"] = _level_weights(sub["level_weights"])
        try:
            built[name] = cls(**sub)
        except TypeError as exc:
            raise ConfigError(f"bad '{name}' section: {exc}")
        try:
            require_types(built[name], **_ENTRIES.get(name, {}))
        except ConfigError as exc:
            raise ConfigError(f"{name}.{exc}")
    return ExperimentConfig(**built)


def _level_weights(raw) -> dict:
    """``train.level_weights`` with integer level keys and numeric values."""
    if not isinstance(raw, dict):
        raise ConfigError(f"train.level_weights must be an object, got {raw!r}")
    out = {}
    for k, v in raw.items():
        try:
            level = int(k)
        except (TypeError, ValueError):
            raise ConfigError(f"train.level_weights key {k!r} is not an integer level")
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"train.level_weights[{k!r}] must be a number, got {v!r}")
        out[level] = float(v)
    return out


def to_dict(cfg: ExperimentConfig) -> dict:
    out = {}
    for name in _SECTIONS:
        section = getattr(cfg, name)
        out[name] = {f.name: getattr(section, f.name) for f in fields(section)}
    out["train"]["level_weights"] = {str(k): v
                                     for k, v in cfg.train.level_weights.items()}
    return out


def default_config() -> ExperimentConfig:
    return from_dict({})


def set_path(d: dict, dotted: str, value):
    parts = dotted.split(".")
    node = d
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot set '{dotted}': '{p}' is not a section")
    node[parts[-1]] = value


def apply_overrides(d: dict, overrides) -> dict:
    """KEY=VALUE pairs with dotted keys; values parse as JSON, else strings."""
    for pair in overrides:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ConfigError(f"override '{pair}' must look like section.key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        set_path(d, key, value)
    return d


def load_config_dict(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            d = json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigError(f"config file {path} is nested too deep to parse")
    if not isinstance(d, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return d


def canonical_json(cfg: ExperimentConfig) -> str:
    return json.dumps(to_dict(cfg), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()[:16]


def save_config(cfg: ExperimentConfig, path):
    write_text_atomic(path, [json.dumps(to_dict(cfg), sort_keys=True, indent=2), "\n"])


def build_model(cfg: ExperimentConfig, graph: ConceptGraph) -> Model:
    return Model(graph, cfg.encoder, cfg.generator, seed=cfg.train.seed)
