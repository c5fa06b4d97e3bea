"""Every imported name is used in the file that imports it, every
module-level private name of the package is read by some package module,
every public name is read by some code that is not a test, and no package
module imports numpy when it loads.

No linter is a dependency, so this is a small stdlib ``ast`` scan over the
package, the tests and the scripts.  A name that a module lists in
``__all__`` counts as read, so the package ``__init__.py``'s re-exports are
scanned like any other import.
"""

import ast
import pathlib

import pytest

import sqzbudget

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src/sqzbudget", "tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
)
PACKAGE = sorted((ROOT / "src/sqzbudget").glob("*.py"))


def exported(tree):
    """The names a module lists in a literal ``__all__``."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for name in ast.literal_eval(node.value)}


def unused_imports(tree):
    """(line, name) of each imported name that is neither read nor listed in ``__all__``."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.partition(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | exported(tree)
    return [(line, name) for line, name in imported if name not in used]


def test_scan_finds_an_unused_import():
    tree = ast.parse("import math\nimport os.path\nfrom json import dumps as d\nos.sep\n")
    assert unused_imports(tree) == [(1, "math"), (3, "d")]
    # a re-export listed in __all__ counts as read
    tree = ast.parse("from json import dumps, loads\n__all__ = ['dumps']\n")
    assert unused_imports(tree) == [(1, "loads")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def private_definitions(tree):
    """(line, name) of each module-level ``_x = ...``, ``def _x`` or ``class _x``."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(node.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
    return [(line, name) for line, name in defined
            if name.startswith("_") and not name.startswith("__")]


def names_read(tree):
    """Every name the module loads, bare or as an attribute (``module._x``)."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def dead_private_names(trees):
    """(module, line, name) of each private definition that no module reads."""
    read = set().union(*map(names_read, trees.values()))
    return [(module, line, name) for module, tree in trees.items()
            for line, name in private_definitions(tree) if name not in read]


def test_scan_finds_a_dead_private_name():
    trees = {"a": ast.parse("_A = 1\n_B: int = 2\ndef _f():\n    return _B\n__all__ = []\n"),
             "b": ast.parse("import a\nclass _C:\n    pass\na._f()\n")}
    assert dead_private_names(trees) == [("a", 1, "_A"), ("b", 2, "_C")]


def test_no_dead_private_names():
    trees = {str(path.relative_to(ROOT)): ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE}
    assert dead_private_names(trees) == []


def names_read_outside_own_definition(tree):
    """Names the module reads, not counting a top-level def or class reading its own name."""
    read = set()
    for node in tree.body:
        names = names_read(node)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.discard(node.name)
        read |= names
    return read


def test_scan_skips_a_name_read_only_by_its_own_definition():
    tree = ast.parse("def f(n):\n    return f(n - 1)\nclass C:\n    pass\nC()\n")
    assert names_read_outside_own_definition(tree) == {"n", "C"}


def test_every_public_name_has_a_non_test_reader():
    # the package (its re-exporting __init__ aside), the scripts and the benchmark
    paths = [path for folder in ("src/sqzbudget", "scripts", "bench")
             for path in (ROOT / folder).glob("*.py") if path.name != "__init__.py"]
    read = set().union(*(names_read_outside_own_definition(ast.parse(
        path.read_text(encoding="utf-8"))) for path in paths))
    assert sorted(set(sqzbudget.__all__) - read) == []


def load_time_imports(tree, module):
    """(line, statement) of each import of module that runs when the file loads.

    Function bodies run later and are skipped; class bodies and compound
    statements at module level run on load and are scanned.
    """
    found, todo = [], list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if (isinstance(node, ast.Import) and any(
                a.name.partition(".")[0] == module for a in node.names)) or (
                isinstance(node, ast.ImportFrom) and node.level == 0
                and (node.module or "").partition(".")[0] == module):
            found.append((node.lineno, ast.unparse(node)))
        todo += ast.iter_child_nodes(node)
    return sorted(found)


def test_scan_finds_a_load_time_import():
    tree = ast.parse("import numpy.linalg\ntry:\n    from numpy import pi\nexcept ImportError:\n"
                     "    pass\nclass C:\n    import numpy as np\ndef f():\n    import numpy\n"
                     "import numpyish\nfrom . import numpy\n")
    assert load_time_imports(tree, "numpy") == [
        (1, "import numpy.linalg"), (3, "from numpy import pi"), (7, "import numpy as np")]


def test_no_package_module_imports_numpy_when_it_loads():
    # numpy loads only inside the array functions, so budget and sweep start without it
    found = {path.name: load_time_imports(ast.parse(path.read_text(encoding="utf-8")), "numpy")
             for path in PACKAGE}
    assert {name: lines for name, lines in found.items() if lines} == {}
