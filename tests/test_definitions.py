"""Every definition of the package is read by the program: each module-level
function and class of ``src/conceptshot``, and each non-dunder method of
those classes, is read by name somewhere in ``src/`` or in ``bench/*.py``,
so code that only tests call fails here.  Tests do not count, nor do the
strings of an ``__all__``; of string constants only the benchmark's count,
because its trace targets name attributes by string.  Only the standard
library's ``ast`` is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "conceptshot"


def _reads(tree):
    """The names a module reads: loaded names and loaded attributes."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            yield n.attr


def _read_by_program():
    read = set()
    for path in SRC.glob("*.py"):
        read.update(_reads(ast.parse(path.read_text(), str(path))))
    for path in (ROOT / "bench").glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        read.update(_reads(tree))
        read.update(n.value for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and isinstance(n.value, str))
    return read


def _defined(tree):
    """(name, line) of each module-level function and class, and of each
    non-dunder method of those classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, defs)
                        and not (member.name.startswith("__") and member.name.endswith("__"))):
                    yield f"{node.name}.{member.name}", member.lineno


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_read_by_the_program(path):
    read = _read_by_program()
    unread = [f"{name} (line {line})"
              for name, line in _defined(ast.parse(path.read_text(), str(path)))
              if name.rpartition(".")[2] not in read]
    assert unread == [], f"{path.name} defines names only tests read: {unread}"
