"""No module imports a name it does not use.

No linter ships with the project's dependencies, so this parses each module
of the package and the scripts with ``ast``.  An imported name must be read
somewhere in its module, be listed in ``__all__``, or sit on a line marked
``# noqa: F401`` (a deliberate re-export).  ``__future__`` imports are
exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*(ROOT / "src" / "longmem").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


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
