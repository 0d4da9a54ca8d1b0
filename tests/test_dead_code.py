"""A dead-code lint for ``src/shintani``, on the standard library's ``ast``
alone: no module imports a name it never uses, and no module-private
function or class (a module-level ``_name``) and no private method (a
``_name`` in a class body) goes unreferenced in the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shintani"

# Names a package __init__ imports for its users rather than for itself
RE_EXPORTS = {
    "kernels/__init__.py": {"scalar", "box_sum_roundoff"},
}


def _modules():
    return {str(path.relative_to(PACKAGE)): ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.rglob("*.py"))}


def _used_names(tree) -> set:
    """Every name the module reads, quoted annotations included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
    return used


def _imported_names(tree):
    """(bound name, line) for every import of the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _private_defs(tree):
    """The names of the module-level functions and classes and of the
    methods in class bodies that are ``_name`` but not ``__dunder__``."""
    bodies = [tree.body] + [node.body for node in ast.walk(tree)
                            if isinstance(node, ast.ClassDef)]
    return [node.name for body in bodies for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def test_no_unused_imports():
    unused = []
    for name, tree in _modules().items():
        used = _used_names(tree) | RE_EXPORTS.get(name, set())
        unused += [f"{name}:{line} {bound}" for bound, line in _imported_names(tree)
                   if bound not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_no_unreferenced_private_helpers():
    modules = _modules()
    used = set().union(*map(_used_names, modules.values()))
    dead = [f"{name} {helper}" for name, tree in modules.items()
            for helper in _private_defs(tree) if helper not in used]
    assert not dead, "private and referenced nowhere in the package: " + ", ".join(dead)


def test_the_lint_sees_an_unused_import_and_a_dead_helper():
    tree = ast.parse("from operator import mul\nimport os.path\n\n"
                     "def _dead():\n    return os.sep\n\n"
                     "class Box:\n"
                     "    def __init__(self):\n        self._live()\n\n"
                     "    def _live(self):\n        pass\n\n"
                     "    def _dead_method(self):\n        pass\n")
    used = _used_names(tree)
    assert [b for b, _ in _imported_names(tree) if b not in used] == ["mul"]
    assert [d for d in _private_defs(tree) if d not in used] == ["_dead", "_dead_method"]
