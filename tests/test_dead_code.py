"""A dead-code lint for ``src/shintani``, on the standard library's ``ast``
alone: no module imports a name it never uses, no module-private function
or class (a module-level ``_name``) and no private method (a ``_name`` in a
class body) goes unreferenced in the package, and neither does a public
one, unless it is read from outside the package (:func:`_outside_names`)."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shintani"

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


def _defs(tree):
    """The names of the module-level functions and classes and of the
    methods in class bodies, but not ``__dunder__`` ones."""
    bodies = [tree.body] + [node.body for node in ast.walk(tree)
                            if isinstance(node, ast.ClassDef)]
    return [node.name for body in bodies for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("__")]


def _private_defs(tree):
    return [name for name in _defs(tree) if name.startswith("_")]


def _public_defs(tree):
    return [name for name in _defs(tree) if not name.startswith("_")]


def _assigned(tree, target: str):
    """The value of the module-level assignment ``target = ...``."""
    return next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == target for t in node.targets))


def _outside_names() -> set:
    """The public names read from outside the package: the keys of
    ``shintani.__init__._MODULE_OF``, the attributes that the benchmark's
    tracer wraps (its ``SPANS``) and that its environment probe reads, and
    the CLI entry point ``cli.main``; all parsed, none imported."""
    table = _assigned(ast.parse((PACKAGE / "__init__.py").read_text()), "_MODULE_OF")
    names = set(ast.literal_eval(table)) | {"main"}
    spans = _assigned(ast.parse((ROOT / "perfbench" / "tracer.py").read_text()), "SPANS")
    names |= {node.value for value in spans.values for node in ast.walk(value)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    run = ast.parse((ROOT / "perfbench" / "run.py").read_text())
    probe = next(node for node in ast.walk(run)
                 if isinstance(node, ast.FunctionDef) and node.name == "probe_environment")
    code = _assigned(ast.Module(body=probe.body, type_ignores=[]), "code")
    return names | _used_names(ast.parse(ast.literal_eval(code)))


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


def test_no_unreferenced_public_names():
    modules = _modules()
    used = set().union(*map(_used_names, modules.values())) | _outside_names()
    dead = [f"{name} {helper}" for name, tree in modules.items()
            for helper in _public_defs(tree) if helper not in used]
    assert not dead, "public and referenced nowhere in the package: " + ", ".join(dead)


def test_the_lint_sees_an_unused_import_and_a_dead_helper():
    tree = ast.parse("from operator import mul\nimport os.path\n\n"
                     "def _dead():\n    return os.sep\n\n"
                     "def helper():\n    return Box().live()\n\n"
                     "def unused():\n    pass\n\n"
                     "def build_signed_domain():\n    pass\n\n"
                     "class Box:\n"
                     "    def __init__(self):\n        self._live()\n\n"
                     "    def _live(self):\n        pass\n\n"
                     "    def live(self):\n        helper()\n\n"
                     "    def _dead_method(self):\n        pass\n\n"
                     "    def dead_method(self):\n        pass\n")
    used = _used_names(tree)
    assert [b for b, _ in _imported_names(tree) if b not in used] == ["mul"]
    assert [d for d in _private_defs(tree) if d not in used] == ["_dead", "_dead_method"]
    # build_signed_domain is read from outside, through the package table
    outside = used | _outside_names()
    assert {"build_signed_domain", "cone_coordinates", "BACKEND", "main"} <= outside
    assert [d for d in _public_defs(tree) if d not in outside] == ["unused", "dead_method"]
