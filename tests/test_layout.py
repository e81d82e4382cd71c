"""Package layout: no module-level code that only the tests reach.

A module-level function or class of ``src/ncorep`` must be referenced
somewhere in the package outside its own definition, or be decorated
(the decorator registers it).  Builders that only the tests need live in
``tests/conftest.py``.
"""

import ast
from pathlib import Path

import ncorep

SRC = Path(ncorep.__file__).parent


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def unreferenced():
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    uses = {}
    for tree in trees.values():
        for name in _names(tree):
            uses[name] = uses.get(name, 0) + 1
    out = set()
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.decorator_list:
                continue
            own = sum(1 for name in _names(node) if name == node.name)
            if uses.get(node.name, 0) == own:
                out.add((mod, node.name))
    return out


def test_no_code_only_the_tests_reach():
    assert unreferenced() == set()
