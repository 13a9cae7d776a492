"""The package keeps no public API that only tests reach: every public
top-level function or class of ``src/hypext``, and every public method,
is referenced by name somewhere in the package itself.  Nor does it keep
a helper that a deletion left behind: every top-level function, private
ones included, is referenced there too."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hypext"


def _public_definitions(tree):
    """(qualified name, name) of the public top-level functions and
    classes of a module and of the public methods of its classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if (isinstance(node, (*functions, ast.ClassDef))
                and not node.name.startswith("_")):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, functions)
                        and not item.name.startswith("_")):
                    yield f"{node.name}.{item.name}", item.name


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]


def _package_trees_and_used_names():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    used = {name for tree in trees.values()
            for name in _referenced_names(tree)}
    return trees, used


def test_every_public_definition_is_used_in_the_package():
    trees, used = _package_trees_and_used_names()
    unused = [f"{module}:{qualname}" for module, tree in trees.items()
              for qualname, name in _public_definitions(tree)
              if name not in used]
    assert unused == []


def test_every_module_level_function_is_used_in_the_package():
    trees, used = _package_trees_and_used_names()
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unused = [f"{module}:{node.name}" for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, functions) and node.name not in used]
    assert unused == []
