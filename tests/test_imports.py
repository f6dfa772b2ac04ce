"""Every name a library module imports is used in that module, and every
name it defines is read by some library module.

No linter is a dependency, so this is the check: each module of
`src/nobfext` is parsed, and a name bound by an import statement that no
expression of the module reads fails the test, as does a top-level
definition that no module reads, unless it is public (`nobfext.__all__`)
or the script's entry point.
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


def dead_definitions(sources: dict[str, str], kept: set[str]) -> list[str]:
    """`module.name` for each name bound at the top level of a module in
    `sources` (module name -> source) that is not in `kept`, not a dunder,
    and read by no module, as a name or as an attribute (`prng.CHUNK`)."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            dead += [f"{module}.{name}" for name in names if name not in read | kept
                     and not (name.startswith("__") and name.endswith("__"))]
    return sorted(dead)


def test_scan_finds_a_dead_definition():
    sources = {"a": "X = 1\n_Y = 2\n__all__ = []\ndef f():\n    return b.g\n",
               "b": "import a\ndef g():\n    return a.X\nclass C:\n    pass\n"}
    assert dead_definitions(sources, {"C"}) == ["a._Y", "a.f"]


def test_library_defines_nothing_it_does_not_read():
    # names only tests read belong in the tests; the public names and the
    # script's entry point are read from outside the package
    import tomllib

    import nobfext
    root = MODULES[0].parent.parent.parent
    scripts = tomllib.loads((root / "pyproject.toml").read_text())["project"]["scripts"]
    kept = set(nobfext.__all__) | {entry.split(":")[1] for entry in scripts.values()}
    assert dead_definitions({p.stem: p.read_text() for p in MODULES}, kept) == []
