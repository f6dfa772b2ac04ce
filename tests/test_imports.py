"""Every name a library module imports is used in that module.

No linter is a dependency, so this is the check: each module of
`src/nobfext` is parsed, and a name bound by an import statement that no
expression of the module reads fails the test.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "nobfext").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names that `source`'s imports bind and no ast.Name reads
    (`np.zeros` reads np); `from __future__` imports bind none."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .x import a, b as c\nnp.zeros(os.sep)\n")
    assert unused_imports(source) == ["a", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
