"""Every imported name is used in the file that imports it.

No linter is a dependency, so this is a small stdlib ``ast`` scan over the
package, the tests and the scripts.  ``__init__.py`` is exempt: its imports
are re-exports, which ``test_api.py`` pins against ``__all__``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src/sqzbudget", "tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(tree):
    """(line, name) of each imported name that is never read in the module."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scan_finds_an_unused_import():
    tree = ast.parse("import math\nimport os.path\nfrom json import dumps as d\nos.sep\n")
    assert unused_imports(tree) == [(1, "math"), (3, "d")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []
