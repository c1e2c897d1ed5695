"""End-to-end command-line flows in a temporary directory."""

import json
import math
import shutil
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conceptshot.cli import main
from conceptshot.config import ExperimentConfig, from_dict


def write_config(tmp_path, **extra):
    d = {
        "paths": {
            "graph": str(tmp_path / "art" / "graph.json"),
            "dataset": str(tmp_path / "art" / "data.bin"),
            "checkpoint": str(tmp_path / "art" / "model.ckpt"),
            "metrics": str(tmp_path / "art" / "metrics.csv"),
            "eval_csv": str(tmp_path / "art" / "eval.csv"),
        },
        "data": {"branching": 3, "num_levels": 3, "input_dim": 8,
                 "semantic_dim": 8, "samples_per_class": 12, "seed": 3},
        "encoder": {"widths": [8, 8], "low_layers": 1},
        "generator": {"embed_widths": [8, 8], "relation_widths": [8, 8]},
        "train": {"iterations": 6, "n_way": 2, "k_shot": 1, "n_query": 3,
                  "adapt_steps": 1, "decay_period": 5, "seed": 1},
        "eval": {"n_episodes": 4, "n_way": 2, "k_shot": 1, "n_query": 3,
                 "adapt_steps": 1, "seed": 2},
    }
    for section, values in extra.items():
        d.setdefault(section, {}).update(values)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    return path


def test_gen_data_writes_and_is_idempotent(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    assert main(["gen-data", "-c", str(cfgp)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "effective config hash" in out
    assert out.count("entity split 'meta-train': 7 classes") == 1
    assert "level 1: 3 classes, 36 samples" in out
    graph = (tmp_path / "art" / "graph.json").read_bytes()
    data = (tmp_path / "art" / "data.bin").read_bytes()
    assert main(["gen-data", "-c", str(cfgp)]) == 0
    assert (tmp_path / "art" / "graph.json").read_bytes() == graph
    assert (tmp_path / "art" / "data.bin").read_bytes() == data


def test_inspect_reports_tree_arithmetic(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    main(["gen-data", "-c", str(cfgp)])
    capsys.readouterr()
    assert main(["inspect-graph", "-c", str(cfgp)]) == 0
    out = capsys.readouterr().out
    # branching 3, 3 levels: 1 + 3 + 9 nodes, 12 edges
    assert "nodes: 13   edges: 12   levels: 3" in out
    assert "level 2 (entities): 9 nodes" in out
    assert out.count("entity split 'meta-train': 7 classes") == 1
    assert "level 2 (entities): 9 classes, 108 samples" in out


def test_train_then_eval_flow(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    main(["gen-data", "-c", str(cfgp)])
    assert main(["train", "-c", str(cfgp)]) == 0
    assert (tmp_path / "art" / "model.ckpt").exists()
    assert (tmp_path / "art" / "metrics.csv").exists()
    assert (tmp_path / "art" / "effective-config.train.json").exists()
    capsys.readouterr()
    assert main(["eval", "-c", str(cfgp)]) == 0
    out = capsys.readouterr().out
    assert "±" in out and "2-way 1-shot" in out
    lines = (tmp_path / "art" / "eval.csv").read_text().splitlines()
    assert lines[0] == "episode,accuracy" and len(lines) == 5
    # the metrics CSV's number format: a plain float repr in every cell
    for i, line in enumerate(lines[1:]):
        episode, accuracy = line.split(",")
        assert int(episode) == i and 0.0 <= float(accuracy) <= 1.0


def test_eval_csv_is_written_atomically(tmp_path, monkeypatch, capsys):
    cfgp = write_config(tmp_path)
    main(["gen-data", "-c", str(cfgp)])
    assert main(["eval", "-c", str(cfgp), "--untrained"]) == 0
    csv = tmp_path / "art" / "eval.csv"
    before = csv.read_bytes()
    lines = before.decode().splitlines()
    assert lines[0] == "episode,accuracy"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3"]

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", refuse)
    capsys.readouterr()
    assert main(["eval", "-c", str(cfgp), "--untrained", "--set", "eval.seed=9"]) == 3
    assert "data error: cannot write" in capsys.readouterr().err
    assert csv.read_bytes() == before
    assert not [p.name for p in csv.parent.iterdir() if p.name.endswith(".tmp")]


def test_unwritable_output_path_exits_3(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    blocker = tmp_path / "a-file"
    blocker.write_text("not a directory")
    capsys.readouterr()
    assert main(["gen-data", "-c", str(cfgp),
                 "--set", f"paths.graph={blocker / 'graph.json'}"]) == 3
    err = capsys.readouterr().err
    assert "data error: cannot write" in err and "Traceback" not in err
    assert blocker.read_text() == "not a directory"


def test_metrics_reruns_byte_identical(tmp_path):
    cfgp = write_config(tmp_path)
    main(["gen-data", "-c", str(cfgp)])
    assert main(["train", "-c", str(cfgp)]) == 0
    first = (tmp_path / "art" / "metrics.csv").read_bytes()
    assert main(["train", "-c", str(cfgp)]) == 0
    assert (tmp_path / "art" / "metrics.csv").read_bytes() == first


def test_untrained_chance_eval(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    main(["gen-data", "-c", str(cfgp)])
    capsys.readouterr()
    rc = main(["eval", "-c", str(cfgp), "--untrained",
               "--set", "generator.scale=0.0", "--set", "eval.adapt_steps=0"])
    assert rc == 0
    assert "accuracy 0.5000 ± 0.0000" in capsys.readouterr().out


def test_eval_concept_level(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    main(["gen-data", "-c", str(cfgp)])
    capsys.readouterr()
    rc = main(["eval", "-c", str(cfgp), "--untrained", "--level", "1",
               "--set", "eval.n_episodes=2"])
    assert rc == 0
    assert "level 1" in capsys.readouterr().out


def test_override_is_echoed_into_effective_config(tmp_path):
    cfgp = write_config(tmp_path)
    main(["gen-data", "-c", str(cfgp), "--set", "data.seed=99"])
    saved = json.loads((tmp_path / "art" / "effective-config.gen-data.json")
                       .read_text())
    assert saved["data"]["seed"] == 99


def test_config_file_naming_flags_exits_2(tmp_path, capsys):
    # the removed ``flags`` section is an unknown section, from a file too
    cfgp = write_config(tmp_path, flags={"self_loops": True})
    capsys.readouterr()
    assert main(["gen-data", "-c", str(cfgp)]) == 2
    assert "flags" in capsys.readouterr().err
    assert not (tmp_path / "art").exists()


@pytest.mark.parametrize("override", ['data.branching="x"', 'encoder.widths="ab"',
                                      'generator.scale="x"', 'train.n_way="x"',
                                      "eval.seed=1.5", "paths.graph=5"])
def test_config_type_errors_name_section_and_key(tmp_path, capsys, override):
    # each section checks its own field types first, so a value of the wrong
    # type never reaches a comparison of the section's own checks
    cfgp = write_config(tmp_path)
    capsys.readouterr()
    assert main(["gen-data", "-c", str(cfgp), "--set", override]) == 2
    err = capsys.readouterr().err
    assert f"{override.partition('=')[0]} must be" in err
    assert "not supported between" not in err


@pytest.mark.parametrize("override", ["train.n_way=0", "eval.n_way=0", "encoder.low_layers=9",
                                      "generator.scale=-1", "data.branching=1"])
def test_config_range_errors_name_section_and_key(tmp_path, capsys, override):
    cfgp = write_config(tmp_path)
    capsys.readouterr()
    assert main(["gen-data", "-c", str(cfgp), "--set", override]) == 2
    assert f"{override.partition('=')[0]} must be" in capsys.readouterr().err


def _with_value(blob, name, value):
    """The checkpoint ``blob`` with the first entry of parameter ``name`` set
    to ``value``: its tables follow the header in the header's name order."""
    hlen = int.from_bytes(blob[4:8], "little")
    offset = 8 + hlen
    for n, shape in json.loads(blob[8:offset])["params"]:
        if n == name:
            return blob[:offset] + np.float64(value).astype("<f8").tobytes() + blob[offset + 8:]
        offset += 8 * math.prod(shape)
    raise KeyError(name)


def test_exit_codes(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    # config errors
    assert main(["train", "-c", str(cfgp), "--set", "train.bogus=1"]) == 2
    assert main(["train", "-c", str(tmp_path / "missing.json")]) == 2
    assert main(["gen-data", "-c", str(cfgp), "--set", "data.branching=0"]) == 2
    assert main(["eval", "-c", str(cfgp), "--set", "eval.inner_lr=NaN"]) == 2
    assert main(["train", "-c", str(cfgp), "--set", "train.inner_lr=Infinity"]) == 2
    assert main(["train", "-c", str(cfgp), "--set", 'train.level_weights={"x":1}']) == 2
    assert main(["train", "-c", str(cfgp), "--set", 'train.level_weights={"1":"x"}']) == 2
    assert main(["train", "-c", str(cfgp), "--set", "train.level_weights=3"]) == 2
    for bad in ("eval.n_episodes=2.5", "eval.n_episodes=true", "eval.adapt_steps=2.5",
                "eval.adapt_steps=true", "eval.k_shot=1.0", "eval.n_way=2.5"):
        assert main(["eval", "-c", str(cfgp), "--untrained", "--set", bad]) == 2
    for bad in ("train.iterations=1.5", "train.adapt_steps=2.5",
                "train.episodes_per_term=1.5"):
        assert main(["train", "-c", str(cfgp), "--set", bad]) == 2
    # every section is type-checked: non-finite floats, non-integer ints,
    # non-bool bools, and a section that is not an object
    for bad in ("generator.scale=NaN", "generator.slope=NaN", "encoder.slope=NaN",
                "encoder.slope=Infinity", "generator.scale=true", "data.mix_mode=no",
                "train=3", "encoder.widths=[2.5,8]", "data.sigma_levels=[NaN,0.4,0.3]"):
        assert main(["train", "-c", str(cfgp), "--set", bad]) == 2
    for bad in ("data.branching=2.5", 'data.semantic_noise="a"',
                "data.semantic_noise=-1"):
        assert main(["gen-data", "-c", str(cfgp), "--set", bad]) == 2
    # sizes past the int32 node ids or numpy's array limit, checked before any
    # size is derived from them (a huge level count included)
    for key in ("samples_per_class", "input_dim", "semantic_dim", "branching",
                "num_levels"):
        assert main(["gen-data", "-c", str(cfgp), "--set",
                     f"data.{key}=100000000000000000000"]) == 2
    # negative seeds, and a weak fraction outside [0, 1) or one that leaves
    # fewer than two leaves for meta-train and meta-test
    for cmd, bad in (("gen-data", "data.seed=-1"), ("train", "train.seed=-1"),
                     ("eval", "eval.seed=-1")):
        assert main([cmd, "-c", str(cfgp), "--set", bad]) == 2
    for frac in ("-0.5", "1.0", "0.999"):
        assert main(["gen-data", "-c", str(cfgp), "--set", "data.mix_mode=true",
                     "--set", f"data.weak_fraction={frac}"]) == 2
    # config files that are not a JSON object, not UTF-8, nested too deep to
    # parse, or not a file
    (tmp_path / "array.json").write_text("[1, 2]")
    (tmp_path / "latin1.json").write_bytes(b'{"paths": {"graph": "\xff"}}')
    (tmp_path / "deep.json").write_text("[" * 100_000)
    (tmp_path / "art").mkdir()
    for path in ("array.json", "latin1.json", "deep.json", "art"):
        assert main(["train", "-c", str(tmp_path / path)]) == 2
    # data errors: noise so large that generation overflows is reported as
    # non-finite semantics, with no numpy warning (an error under pytest's
    # warning filter), and nothing is written
    for bad in ("data.semantic_noise=1e308", "data.sigma_levels=[1e308,1e308,1e308]"):
        assert main(["gen-data", "-c", str(cfgp), "--set", bad]) == 3
    # data errors: artifacts missing
    capsys.readouterr()
    assert main(["train", "-c", str(cfgp)]) == 3
    assert main(["inspect-graph", "-c", str(cfgp)]) == 3
    missing = f"graph file {tmp_path / 'art' / 'graph.json'} not found; run gen-data first"
    assert capsys.readouterr().err.count(missing) == 2
    main(["gen-data", "-c", str(cfgp)])
    assert main(["eval", "-c", str(cfgp)]) == 3  # no checkpoint yet
    # data errors: level 1 has 3 classes, fewer than eval.n_way; eval keeps
    # its way count (it is part of the result) where training would cap it
    assert main(["eval", "-c", str(cfgp), "--untrained", "--level", "1",
                 "--set", "eval.n_way=5"]) == 3
    # config errors: an episode count whose accuracy vector numpy cannot
    # even describe (no memory is allocated)
    assert main(["eval", "-c", str(cfgp), "--untrained",
                 "--set", "eval.n_episodes=100000000000000000000"]) == 2
    # numerical errors: a huge inner rate overflows
    assert main(["eval", "-c", str(cfgp), "--untrained",
                 "--set", "eval.inner_lr=1e306"]) == 4
    # data errors: a graph file without an integer num_levels
    graph_path = tmp_path / "art" / "graph.json"
    doc = json.loads(graph_path.read_text())
    for num_levels in (None, 2.5, "3"):
        if num_levels is None:
            doc.pop("num_levels")
        else:
            doc["num_levels"] = num_levels
        graph_path.write_text(json.dumps(doc))
        assert main(["inspect-graph", "-c", str(cfgp)]) == 3
        assert main(["train", "-c", str(cfgp)]) == 3
    # data errors: a graph file that is not UTF-8 or is nested too deep to
    # parse; artifact paths that are directories
    for blob in (b"\xff\xfe{}", b"[" * 100_000):
        graph_path.write_bytes(blob)
        assert main(["inspect-graph", "-c", str(cfgp)]) == 3
        assert main(["train", "-c", str(cfgp)]) == 3
    main(["gen-data", "-c", str(cfgp)])
    for key in ("paths.graph", "paths.dataset"):
        for command in ("inspect-graph", "train", "eval"):
            assert main([command, "-c", str(cfgp), "--set", f"{key}={tmp_path}"]) == 3
    # level_weights keys must be abstract levels of the graph (0 and 1 here);
    # level 0 has too few classes for an episode, and is still allowed
    assert main(["train", "-c", str(cfgp), "--set", 'train.level_weights={"7":1}']) == 2
    assert main(["train", "-c", str(cfgp), "--set", 'train.level_weights={"2":1}']) == 2
    assert main(["train", "-c", str(cfgp), "--set", 'train.level_weights={"0":2}']) == 0
    err = capsys.readouterr().err
    assert "config error" in err and "data error" in err
    assert "need 5 classes with >=4 samples at level 1, found 3" in err
    assert "numerical failure" in err
    # data errors: node ids and levels, and edge ends, that are not JSON
    # integers, and names that are not strings; each value would load as
    # the one it replaces if it were coerced
    good = graph_path.read_text()
    for where, key, value in (("nodes", "id", 1.5), ("nodes", "id", True),
                              ("nodes", "id", "1"), ("nodes", "level", 1.0),
                              ("nodes", "level", True), ("nodes", "level", "1"),
                              ("nodes", "name", None), ("nodes", "name", 1),
                              ("edges", 1, 1.9), ("edges", 1, True), ("edges", 1, "1")):
        doc = json.loads(good)
        item = doc[where][1 if where == "nodes" else 0]
        assert item[key] == 1 or key == "name"
        item[key] = value
        graph_path.write_text(json.dumps(doc))
        assert main(["inspect-graph", "-c", str(cfgp)]) == 3
        field = f": {key} must be a" if where == "nodes" else ": edge ends must be"
        assert field in capsys.readouterr().err
    graph_path.write_text(good)
    # data errors: a checkpoint with a non-finite parameter, named before any
    # parameter is written or any episode is run
    ckpt = tmp_path / "art" / "model.ckpt"
    blob = ckpt.read_bytes()
    for name, value in (("enc.0.W", np.nan), ("gen.out.b", -np.inf)):
        ckpt.write_bytes(_with_value(blob, name, value))
        assert main(["eval", "-c", str(cfgp)]) == 3
        assert (f"checkpoint parameter '{name}' holds non-finite values"
                in capsys.readouterr().err)
    ckpt.write_bytes(blob)
    assert main(["eval", "-c", str(cfgp)]) == 0
    # data errors: a dataset whose width is not the config's input dim
    for command in (["train"], ["eval", "--untrained"]):
        assert main(command + ["-c", str(cfgp), "--set", "data.input_dim=6"]) == 3
        assert ("has input dim 8, the config's encoder.input_dim is 6"
                in capsys.readouterr().err)
    # data errors: a graph whose semantic dim or level count is not the config's
    for bad, message in (("data.semantic_dim=6", "has semantic dim 8, the config's "
                                                 "data.semantic_dim is 6"),
                         ("data.num_levels=4", "has level count 3, the config's "
                                               "data.num_levels is 4")):
        for command in (["train"], ["eval", "--untrained"]):
            assert main(command + ["-c", str(cfgp), "--set", bad]) == 3
            assert message in capsys.readouterr().err


def test_ablate_concepts_prints_both_rows(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    main(["gen-data", "-c", str(cfgp)])
    capsys.readouterr()
    assert main(["ablate", "concepts", "-c", str(cfgp),
                 "--set", "eval.n_episodes=2"]) == 0
    out = capsys.readouterr().out
    assert "concepts-on" in out and "concepts-off" in out
    variant = tmp_path / "art" / "ablate-concepts" / "concepts-off"
    assert (variant / "model.ckpt").exists()
    rows = (variant / "eval-episodes.csv").read_text().splitlines()
    assert rows[0] == "episode,accuracy" and len(rows) - 1 == 2


def test_ablate_generates_data_when_missing(tmp_path, capsys):
    cfgp = write_config(tmp_path, train={"iterations": 2},
                        eval={"n_episodes": 2})
    assert main(["ablate", "weak-only", "-c", str(cfgp)]) == 0
    out = capsys.readouterr().out
    assert "weak-only sweep" in out


# every key of every section, with its declared type ("int", "list", ...)
_KEYS = [(f"{s.name}.{f.name}", f.type) for s in fields(ExperimentConfig)
         for f in fields(getattr(from_dict({}), s.name))]
# keys whose count sets the work of a run, kept at 2 or less
_COUNTS = {"train.iterations", "train.episodes_per_term", "eval.n_episodes"}
_SMALL_FLOATS = st.sampled_from([-1.0, 0.0, 0.1, 0.5, 1.0, 2.0])
_VALUES = {
    "int": st.integers(-1, 3),
    "float": _SMALL_FLOATS,
    "bool": st.booleans(),
    "str": st.sampled_from(["embeddings", "one-hot", "x"]),
    "list": st.lists(st.integers(-1, 3) | _SMALL_FLOATS, max_size=3),
    "dict": st.dictionaries(st.sampled_from(["0", "1", "2", "x"]), _SMALL_FLOATS,
                            max_size=2),
}
# the names a path key may take, under the run's artifact directory ("" is
# that directory itself)
_PATHS = ["", "graph.json", "data.bin", "model.ckpt", "metrics.csv", "eval.csv",
          "missing/x.csv"]


@st.composite
def _override(draw):
    key, kind = draw(st.sampled_from(_KEYS))
    if key.startswith("paths."):
        return key, draw(st.sampled_from(_PATHS))
    value = draw(st.integers(-1, 2) if key in _COUNTS else _VALUES[kind])
    return key, json.dumps(value)


@pytest.fixture(scope="module")
def tiny_world(tmp_path_factory):
    """A directory holding the graph, dataset and checkpoint of the tiny
    config of ``write_config`` (2 iterations, 2 eval episodes)."""
    root = tmp_path_factory.mktemp("tiny")
    cfgp = write_config(root, train={"iterations": 2}, eval={"n_episodes": 2})
    assert main(["gen-data", "-c", str(cfgp)]) == 0
    assert main(["train", "-c", str(cfgp)]) == 0
    return root


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["gen-data", "train", "eval", "inspect-graph"]),
       overrides=st.lists(_override(), max_size=4),
       eval_args=st.sampled_from([[], ["--untrained"], ["--level", "1"],
                                  ["--untrained", "--split", "meta-train"]]))
def test_main_exits_with_a_documented_code(tiny_world, tmp_path_factory, command,
                                           overrides, eval_args):
    # random small overrides of any key end in exit 0, 2, 3 or 4, never an
    # uncaught exception (a numpy warning included: pytest makes it an error)
    run = tmp_path_factory.mktemp("run")
    shutil.copytree(tiny_world, run, dirs_exist_ok=True)
    cfgp = write_config(run, train={"iterations": 2}, eval={"n_episodes": 2})
    argv = [command, "-c", str(cfgp)] + (eval_args if command == "eval" else [])
    for key, value in overrides:
        if key.startswith("paths."):
            value = str(run / "art" / value)
        argv += ["--set", f"{key}={value}"]
    assert main(argv) in (0, 2, 3, 4)
