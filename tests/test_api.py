"""Every public function or class of the package has a caller in the package.

A module-level name without a leading underscore must be referenced
somewhere in ``src/gamehedge`` other than its own definition and
``__init__.py``; a name that only the tests use belongs in the tests.
"""
from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gamehedge"

# Library entry points with no caller inside the package, and who calls them.
# A path-dependent payoff is a Python callable, which no CLI option can name.
ENTRY_POINTS = {
    "induction.price_path_dependent": "the library and perfbench's certify workload",
}


def public_definitions(tree: ast.Module) -> list[ast.AST]:
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read as globals or attributes anywhere in ``tree`` but ``skip``."""
    names: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unused_public_names(package: Path) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py")) if path.name != "__init__.py"}
    names = {module: referenced_names(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        elsewhere = set().union(*(n for other, n in names.items() if other != module))
        for definition in public_definitions(tree):
            if definition.name not in elsewhere | referenced_names(tree, skip=definition):
                unused.append(f"{module}.{definition.name}")
    return unused


def test_every_public_name_has_a_caller_in_the_package():
    assert sorted(unused_public_names(PACKAGE)) == sorted(ENTRY_POINTS)


def test_the_guard_sees_a_name_only_the_tests_call(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import helper, used\n")
    (tmp_path / "a.py").write_text(
        "def helper(n):\n    return helper(n - 1) if n else 0\n\n\n"
        "def used():\n    return 1\n\n\n"
        "class Kept:\n    pass\n")
    (tmp_path / "b.py").write_text("from .a import Kept, used\n\nVALUE = used()\n\n\n"
                                   "def make() -> Kept:\n    return Kept()\n")
    assert unused_public_names(tmp_path) == ["a.helper", "b.make"]
