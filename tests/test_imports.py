"""Every module-level import of the package is used: a name imported into a
module is read somewhere in that module or exported by its ``__all__``, so
plumbing that a change leaves behind fails here.  Only the standard
library's ``ast`` is used; no linter is needed."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "conceptshot"


def _imported(tree):
    """(bound name, line) of each name a top-level import statement binds."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.asname or a.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield a.asname or a.name, node.lineno


def _exported(tree):
    """The strings of a top-level ``__all__`` list or tuple."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return {e.value for e in node.value.elts}
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_module_import_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in read | _exported(tree)]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"
