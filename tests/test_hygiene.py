"""Source hygiene: every name a package module, demo or test imports
is used there, every public function and method is read by package
code or a demo, and every default of a private function is passed by
some package call."""

import ast
import inspect
import types
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


# the package modules by file name, the demos and tests by directory too
SCANNED = {p.name: p for p in SRC.glob("*.py")} | {
    f"{p.parent.name}/{p.name}": p
    for folder in ("demos", "tests")
    for p in (SRC.parent.parent / folder).glob("*.py")
}


@pytest.mark.parametrize("module", sorted(SCANNED), ids=str)
def test_no_unused_imports(module):
    found = unused_imports(SCANNED[module].read_text())
    assert not found, f"{module}: unused imports (line, name): {found}"


def loaded_names(source):
    """Names ``source`` reads: bare names and attribute names in load
    context.  Imports, definitions and string literals (such as the
    entries of ``__all__``) are not reads."""
    loaded = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
            node.ctx, ast.Load
        ):
            loaded.add(node.id if isinstance(node, ast.Name) else node.attr)
    return loaded


def test_loaded_name_scan_skips_imports_definitions_and_exports():
    source = (
        "from .solver import solve, check\n"
        "import numpy as np\n"
        "__all__ = ['helper']\n"
        "def helper():\n"
        "    return np.linalg.norm(solve())\n"
    )
    assert loaded_names(source) == {"np", "linalg", "norm", "solve"}


def public_members(cls):
    """Public methods, classmethods and properties that ``cls`` defines."""
    kinds = (types.FunctionType, classmethod, staticmethod, property)
    return sorted(
        name
        for name, member in vars(cls).items()
        if not name.startswith("_") and isinstance(member, kinds)
    )


def test_public_member_scan_sees_methods_classmethods_and_properties():
    class Sample:
        field = 1

        def method(self):
            pass

        @classmethod
        def build(cls):
            pass

        @property
        def size(self):
            return 0

        def _private(self):
            pass

    assert public_members(Sample) == ["build", "method", "size"]


def test_every_public_function_is_reached():
    """Each function in ``rbsdelab.__all__``, and each public method,
    classmethod and property of its classes other than exceptions, is
    read by package code outside ``__init__.py`` or by a demo; a name
    only its tests reach, or that only the README names, is surface to
    delete, not to export."""
    import rbsdelab

    root = SRC.parent.parent
    reached = set().union(
        *(
            loaded_names(p.read_text())
            for p in sorted(SRC.glob("*.py")) + sorted(root.glob("demos/*.py"))
            if p.name != "__init__.py"
        )
    )
    surface = []  # (shown name, name read or mentioned)
    for name in rbsdelab.__all__:
        obj = getattr(rbsdelab, name)
        if inspect.isfunction(obj):
            surface.append((name, name))
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            surface += [(f"{name}.{m}", m) for m in public_members(obj)]
    unreached = [shown for shown, name in surface if name not in reached]
    assert not unreached, f"public names only tests reach: {unreached}"


def private_helpers(source):
    """Module-level functions and classes of ``source`` with a single
    leading underscore."""
    return sorted(
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    )


def test_private_helper_scan_sees_module_level_functions_and_classes():
    source = (
        "def _helper():\n"
        "    def _inner():\n"
        "        pass\n"
        "class _Record:\n"
        "    def _method(self):\n"
        "        pass\n"
        "def __getattr__(name):\n"
        "    pass\n"
        "def public():\n"
        "    pass\n"
    )
    assert private_helpers(source) == ["_Record", "_helper"]


def test_every_private_helper_is_read_by_package_code():
    """Each module-level ``_name`` function and class of the package is
    read by package code; a helper only the tests reach (a wrapper kept
    alive for them) is code to delete."""
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    reached = set().union(*(loaded_names(source) for source in sources))
    helpers = [name for source in sources for name in private_helpers(source)]
    assert len(helpers) > 60
    unread = sorted(set(helpers) - reached)
    assert not unread, f"private helpers only tests reach: {unread}"


def unbound_defaults(sources):
    """``(function, parameter)`` pairs of the ``_name`` functions and
    methods defined in ``sources`` whose parameter has a default that no
    call in ``sources`` binds.

    A call reaches a function by its name, bare or as an attribute, and
    binds a parameter by keyword or by position; a method called as an
    attribute has its first parameter bound already.  A starred
    argument binds every position, and a ``**`` mapping every keyword.
    """
    trees = [ast.parse(source) for source in sources]
    defaulted = {}  # name -> {parameter: position, or None if keyword-only}
    for tree in trees:
        methods = {
            id(item)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for item in node.body
        }
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.FunctionDef)
                and node.name.startswith("_")
                and not node.name.startswith("__")
            ):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            skip = int(id(node) in methods)
            params = defaulted.setdefault(node.name, {})
            first = len(positional) - len(a.defaults)
            for k, arg in enumerate(positional[first:], start=first):
                params[arg.arg] = k - skip
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    params[arg.arg] = None
    bound = {name: set() for name in defaulted}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name not in defaulted:
                continue
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {kw.arg for kw in node.keywords}
            for param, position in defaulted[name].items():
                if (
                    param in keywords
                    or None in keywords
                    or (position is not None and (starred or position < len(node.args)))
                ):
                    bound[name].add(param)
    return sorted(
        (name, param)
        for name, params in defaulted.items()
        for param in params
        if param not in bound[name]
    )


def test_unbound_default_scan_sees_positions_keywords_and_methods():
    source = (
        "def _solve(x, tol=1.0, *, fast=False):\n"
        "    pass\n"
        "def _step(x, n=1, m=2):\n"
        "    pass\n"
        "class _Box:\n"
        "    def _grow(self, k=0, j=0):\n"
        "        pass\n"
        "def public(y=0):\n"
        "    pass\n"
        "_solve(1, fast=True)\n"
        "_step(*(1, 2))\n"
        "_Box()._grow(3)\n"
    )
    assert unbound_defaults([source]) == [("_grow", "j"), ("_solve", "tol")]


def test_every_private_default_is_passed():
    """Each defaulted parameter of a ``_name`` function or method of the
    package is bound by some package call, by position or by keyword; a
    default no call overrides is an option with one value in use, code
    to fold into its function."""
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    unbound = unbound_defaults(sources)
    assert not unbound, f"defaults no package call passes: {unbound}"
