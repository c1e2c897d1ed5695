"""End-to-end command-line flows in a temporary directory."""

import json

import pytest

from conceptshot.cli import main


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
    for bad in ("data.branching=2.5", 'data.semantic_noise="a"'):
        assert main(["gen-data", "-c", str(cfgp), "--set", bad]) == 2
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
    # data errors: artifacts missing
    assert main(["train", "-c", str(cfgp)]) == 3
    assert main(["inspect-graph", "-c", str(cfgp)]) == 3
    main(["gen-data", "-c", str(cfgp)])
    assert main(["eval", "-c", str(cfgp)]) == 3  # no checkpoint yet
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
    assert "numerical failure" in err
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
