"""Experiment config: serialization, overrides, hashing."""

import json

import pytest

from conceptshot.config import (apply_overrides, canonical_json, config_hash,
                                from_dict, load_config_dict, save_config, to_dict)
from conceptshot.errors import ConfigError, DataError


def default_config():
    """The config of an empty document: every section at its defaults."""
    return from_dict({})


def test_empty_dict_is_valid():
    cfg = from_dict({})
    assert cfg.encoder.input_dim == cfg.data.input_dim
    assert cfg.train.iterations == 2000
    assert cfg.eval.n_episodes == 600


def test_round_trip_identity():
    cfg = default_config()
    assert from_dict(to_dict(cfg)) == cfg
    cfg2 = from_dict({"data": {"branching": 3, "input_dim": 24},
                      "train": {"seed": 9, "level_weights": {"1": 2.0}}})
    assert from_dict(to_dict(cfg2)) == cfg2
    assert cfg2.train.weight_for(1) == 2.0
    assert cfg2.encoder.input_dim == 24


def test_unknown_names_rejected():
    with pytest.raises(ConfigError, match="unknown config section"):
        from_dict({"trian": {}})
    with pytest.raises(ConfigError, match="train.lr"):
        from_dict({"train": {"lr": 0.1}})
    with pytest.raises(ConfigError, match="unknown config section.*flags"):
        from_dict({"flags": {}})     # a removed section


def test_encoder_dim_mismatch_rejected():
    with pytest.raises(ConfigError, match="input_dim"):
        from_dict({"data": {"input_dim": 24}, "encoder": {"input_dim": 8}})


def test_overrides_parse_and_apply():
    d = apply_overrides({}, ["train.seed=5", "generator.semantics=one-hot",
                             "data.sigma_levels=[1.0, 0.5, 0.1]",
                             "data.mix_mode=true"])
    cfg = from_dict(d)
    assert cfg.train.seed == 5
    assert cfg.generator.semantics == "one-hot"
    assert cfg.data.sigma_levels == [1.0, 0.5, 0.1]
    assert cfg.data.mix_mode is True


def test_override_beats_file_value(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"train": {"seed": 1}}))
    d = load_config_dict(p)
    apply_overrides(d, ["train.seed=7"])
    assert from_dict(d).train.seed == 7


def test_bad_override_rejected():
    with pytest.raises(ConfigError, match="KEY=VALUE|section.key=value"):
        apply_overrides({}, ["train.seed"])
    with pytest.raises(ConfigError, match="not a section"):
        apply_overrides({"train": {"seed": 1}}, ["train.seed.deep=1"])


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config_dict(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config_dict(bad)


def test_config_file_nested_too_deep(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    with pytest.raises(ConfigError, match="nested too deep"):
        load_config_dict(deep)


def test_hash_tracks_content():
    a, b = default_config(), default_config()
    assert config_hash(a) == config_hash(b)
    c = from_dict({"train": {"seed": 123}})
    assert config_hash(a) != config_hash(c)
    assert canonical_json(a) == canonical_json(b)


def test_save_config_round_trip(tmp_path):
    cfg = from_dict({"data": {"branching": 3}})
    p = tmp_path / "saved.json"
    save_config(cfg, p)
    assert from_dict(load_config_dict(p)) == cfg


def test_save_config_is_atomic(tmp_path, monkeypatch):
    p = tmp_path / "saved.json"
    save_config(from_dict({}), p)
    before = p.read_bytes()
    assert before == (json.dumps(to_dict(from_dict({})), sort_keys=True, indent=2)
                      + "\n").encode()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", refuse)
    with pytest.raises(DataError, match="cannot write .*disk full"):
        save_config(from_dict({"data": {"branching": 3}}), p)
    assert p.read_bytes() == before
    assert [q.name for q in tmp_path.iterdir()] == ["saved.json"]
