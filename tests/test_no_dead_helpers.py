"""Every private function and class in the package is used somewhere in
it: a helper whose last caller went away is deleted, not kept."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pseudoform"


def _private_definitions(tree):
    """Names of the private functions and classes a module defines, at
    any depth."""
    return {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    }


def _references(tree):
    """Names a module reads, as a name, an attribute or an import."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_private_helper_is_referenced():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert trees
    defined = {}
    for name, tree in trees.items():
        for helper in _private_definitions(tree):
            defined.setdefault(helper, []).append(name)
    used = set().union(*map(_references, trees.values()))
    assert defined
    assert sorted((files, helper) for helper, files in defined.items() if helper not in used) == []
