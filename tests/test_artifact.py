"""The artifact module: binary framing, atomic writes, and the guard that no
other module writes a file."""

import ast
from pathlib import Path

import numpy as np
import pytest

import conceptshot
from conceptshot import artifact
from conceptshot.classifier_gen import GeneratorConfig
from conceptshot.data import SynthConfig, generate_synthetic, save_dataset
from conceptshot.encoder import EncoderConfig
from conceptshot.errors import DataError
from conceptshot.graph import save_graph
from conceptshot.meta import Model, save_checkpoint
from conceptshot.tensor import SgdOptimizer


def _save(kind, path, seed):
    """Write a small artifact of ``kind``; other seeds give other bytes."""
    g, ds = generate_synthetic(SynthConfig(branching=2, num_levels=2, input_dim=3,
                                           semantic_dim=2, samples_per_class=2,
                                           seed=seed))
    if kind == "graph":
        save_graph(g, path)
    elif kind == "dataset":
        save_dataset(ds, path)
    else:
        m = Model(g, EncoderConfig(input_dim=3, widths=[2], low_layers=0),
                  GeneratorConfig(embed_widths=[2, 2], relation_widths=[2, 2]), seed=seed)
        save_checkpoint(path, m, SgdOptimizer(m.params))


@pytest.mark.parametrize("kind", ["checkpoint", "dataset", "graph"])
def test_saves_are_atomic(tmp_path, monkeypatch, kind):
    path = tmp_path / "new" / "artifact.bin"      # the writer makes the parent
    _save(kind, path, seed=0)
    before = path.read_bytes()

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr("os.replace", refuse)
    with pytest.raises(DataError, match="cannot write .*disk full"):
        _save(kind, path, seed=1)
    assert path.read_bytes() == before
    assert [p.name for p in path.parent.iterdir()] == ["artifact.bin"]
    monkeypatch.undo()
    _save(kind, path, seed=1)
    assert path.read_bytes() != before


def test_write_text_atomic_keeps_the_old_file_on_error(tmp_path):
    path = tmp_path / "out.csv"
    artifact.write_text_atomic(path, ["a,b\n", "1,2\n"])
    assert path.read_bytes() == b"a,b\n1,2\n"

    def failing():
        yield "c,d\n"
        raise RuntimeError("mid-write")

    with pytest.raises(RuntimeError, match="mid-write"):
        artifact.write_text_atomic(path, failing())
    assert path.read_bytes() == b"a,b\n1,2\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_binary_framing_bytes_and_round_trip(tmp_path):
    a = np.arange(6, dtype="<f8").reshape(2, 3)
    b = np.array([7, -1], dtype="<i4")
    path = tmp_path / "x.bin"
    artifact.write_binary(path, b"TEST", {"n": 2, "a": 1}, [a, b])
    head = b'{"a":1,"n":2}'
    assert path.read_bytes() == (b"TEST" + len(head).to_bytes(4, "little") + head
                                 + a.tobytes() + b.tobytes())
    header, (a2, b2) = artifact.read_binary(
        path, b"TEST", "test", lambda h: [("<f8", (h["n"], 3)), ("<i4", (h["n"],))])
    assert header == {"a": 1, "n": 2}
    assert a2.tobytes() == a.tobytes() and b2.tobytes() == b.tobytes()


@pytest.mark.parametrize("blob, message", [
    (b"TEST\xff\xff\xff\xff{}", "truncated in its header"),   # no 4 GiB read
    (b"TEST\x02\x00\x00\x00{}", "malformed"),                # a header without n
    (b'TEST\x08\x00\x00\x00{"n":-1}', "malformed"),           # a negative shape
    (b'TEST\x07\x00\x00\x00{"n":1}', "truncated"),
    (b"TEST\x00\x10\x00\x00" + b"[" * 4096, "malformed"),    # too deep to parse
], ids=["huge-header-length", "header-without-n", "negative-shape", "short-table",
        "deep-header"])
def test_read_binary_malformations(tmp_path, blob, message):
    path = tmp_path / "x.bin"
    path.write_bytes(blob)
    with pytest.raises(DataError, match=message):
        artifact.read_binary(path, b"TEST", "test", lambda h: [("<f8", (h["n"],))])


def _writes(tree):
    """(line, what) for each struct import, os.replace and file write."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "struct" for a in node.names):
            yield node.lineno, "imports struct"
        elif isinstance(node, ast.ImportFrom) and node.module == "struct":
            yield node.lineno, "imports struct"
        elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                a.name == "replace" for a in node.names):
            yield node.lineno, "imports os.replace"
        elif (isinstance(node, ast.Attribute) and node.attr == "replace"
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            yield node.lineno, "calls os.replace"
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in ("write_text", "write_bytes", "tofile", "save", "savez", "savetxt"):
                yield node.lineno, f"writes a file with {name}"
            if name == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), None)
                if mode is not None and not (isinstance(mode, ast.Constant)
                                             and set(mode.value) <= set("rbt")):
                    yield node.lineno, "opens a file for writing"


def test_only_the_artifact_module_writes_files():
    found = {}
    for path in sorted(Path(conceptshot.__file__).parent.glob("*.py")):
        hits = list(_writes(ast.parse(path.read_text())))
        if hits:
            found[path.name] = hits
    # the scan sees the writer itself, so an empty result means something
    assert {what for _, what in found.pop("artifact.py", [])} == {
        "calls os.replace", "opens a file for writing"}
    assert found == {}
