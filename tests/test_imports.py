"""Every import in the package is used.

A name an import binds counts as used when the module reads it
(an ast.Name, also inside a string annotation), lists it in __all__,
or imports it on a line marked "# noqa: F401". Every name in the
package's __all__ is listed once and is an attribute of the package.
"""

import ast
from pathlib import Path

import pytest

import waveletforest

SRC = Path(__file__).resolve().parent.parent / "src" / "waveletforest"


def _bound_names(node):
    """(name, line range) of each name an import statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    lines = range(node.lineno, node.end_lineno + 1)
    return [((a.asname or a.name).split(".")[0], lines) for a in node.names]


def _used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a.annotation for a in
                           args.posonlyargs + args.args + args.kwonlyargs]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(n.id for n in ast.walk(ast.parse(ann.value))
                            if isinstance(n, ast.Name))
    return used


def unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    used = _used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for name, span in _bound_names(node):
            if name in used or any("# noqa: F401" in lines[i - 1] for i in span):
                continue
            unused.append(f"{path.stem}.{name}")
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_all_names_are_unique_package_attributes():
    names = waveletforest.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(waveletforest, n)] == []
