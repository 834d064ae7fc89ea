"""Source hygiene: every name a package module imports is used there."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rbsdelab"


def unused_imports(source):
    """Names bound by imports in ``source`` that nothing else refers to.

    A name counts as used when it is loaded anywhere in the module
    (``numpy`` through ``np.zeros`` included) or is listed in a literal
    ``__all__``, which is how the package re-exports its API.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_unused_import_scan_sees_plain_aliased_and_exported_names():
    source = (
        "import math\n"
        "import numpy as np\n"
        "from os import path, sep as separator\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "x = np.pi + len(separator)\n"
    )
    assert unused_imports(source) == [(1, "math"), (3, "path")]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in SRC.glob("*.py")), ids=str
)
def test_no_unused_imports(module):
    found = unused_imports((SRC / module).read_text())
    assert not found, f"{module}: unused imports (line, name): {found}"
