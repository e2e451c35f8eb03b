"""Every module-level import in ``src/seamkit`` and ``tests`` is read, and
none of those modules walks a graph with ``collections.deque``.

No linter runs on this repository, so an import that a change left behind
would stay unnoticed; this test parses each module with ``ast`` and names
the imports it binds at module level but never reads.  Graph walks are
``scipy.sparse.csgraph`` calls, so a ``deque`` marks a hand-rolled BFS; only
``tests/loop_reference.py`` keeps its loops, on purpose, as the reference
the array code is checked against.
"""

import ast
import glob
import os

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), ".."))
MODULES = sorted(
    glob.glob(os.path.join(ROOT, "src", "seamkit", "*.py"))
    + glob.glob(os.path.join(ROOT, "tests", "*.py"))
)


def _module_level(tree):
    """The statements of ``tree`` outside any function or class body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt))


def unused_imports(source: str) -> list[str]:
    """Names a module-level import in ``source`` binds that nothing reads."""
    tree = ast.parse(source)
    bound = {}
    for node in _module_level(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in read]


def test_unused_imports_finds_what_nothing_reads():
    source = "import os, sys\nfrom a.b import c as d, e\nif sys:\n    import json\nos.path\ne()\n"
    assert unused_imports(source) == ["line 2: d", "line 4: json"]
    assert unused_imports("def f():\n    import os\n") == []  # not at module level


@pytest.mark.parametrize("path", MODULES, ids=lambda p: os.path.relpath(p, ROOT))
def test_every_module_level_import_is_read(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def deque_uses(source: str) -> list[str]:
    """Lines of ``source`` that import ``deque`` from ``collections`` or read
    ``collections.deque``."""

    def uses(node):
        if isinstance(node, ast.ImportFrom):
            return node.module == "collections" and any(alias.name == "deque" for alias in node.names)
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "deque"
            and getattr(node.value, "id", None) == "collections"
        )

    return [f"line {line}" for line in sorted(n.lineno for n in ast.walk(ast.parse(source)) if uses(n))]


def test_deque_uses_finds_both_spellings():
    source = "import collections\nfrom collections import Counter\ndef f():\n    from collections import deque\nq = collections.deque()\n"
    assert deque_uses(source) == ["line 4", "line 5"]
    assert deque_uses("from collections import Counter\nx.deque\n") == []


@pytest.mark.parametrize(
    "path",
    [p for p in MODULES if os.path.basename(p) != "loop_reference.py"],
    ids=lambda p: os.path.relpath(p, ROOT),
)
def test_no_module_walks_a_graph_with_deque(path):
    with open(path, encoding="utf-8") as fh:
        assert deque_uses(fh.read()) == []
