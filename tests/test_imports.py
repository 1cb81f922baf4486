"""No module imports a name it does not use, and no constant goes unread.

No linter ships with the project's dependencies, so this parses each module
of the package and the scripts with ``ast``.  An imported name must be read
somewhere in its module, be listed in ``__all__``, or sit on a line marked
``# noqa: F401`` (a deliberate re-export).  ``__future__`` imports are
exempt.  A module-level UPPER_CASE constant of the package must be read,
as a name or an attribute, somewhere in the package or the scripts; reads
in the tests do not count.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "longmem").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "scripts").glob("*.py"))


def unused_imports(source):
    """``(line, name)`` of each import in ``source`` that nothing uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            marked = any("# noqa: F401" in lines[line - 1] for line in {node.lineno, alias.lineno})
            if name != "*" and name not in used and not marked:
                unused.append((alias.lineno, name))
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.relative_to(ROOT).as_posix() for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n__all__ = ['tau']\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def unread_constants(package, sources):
    """``(module, line, name)`` of each module-level UPPER_CASE constant
    assigned in ``package`` (a ``{module: source}`` dict) that no source in
    ``sources`` reads, as a name or an attribute."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    unread = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            unread += [(module, node.lineno, t.id) for t in targets
                       if isinstance(t, ast.Name) and t.id.isupper() and t.id not in read]
    return unread


def test_every_constant_is_read():
    package = {p.relative_to(ROOT).as_posix(): p.read_text() for p in PACKAGE}
    assert unread_constants(package, [p.read_text() for p in MODULES]) == []


def test_an_unread_constant_is_caught():
    package = {"a.py": "LIMIT = 3\nSCALE: float = 2.0\nTOL = 1e-9\n_OFFSET = 4\n"
                       "def f(x):\n    return x * SCALE\n"}
    other = "import a\nprint(a._OFFSET)\na.LIMIT = 5\n"
    assert unread_constants(package, [*package.values(), other]) == [
        ("a.py", 1, "LIMIT"), ("a.py", 3, "TOL")]
