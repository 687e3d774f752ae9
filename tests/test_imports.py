"""Module hygiene of the package source."""

import ast
import pathlib

import rankedrange

PACKAGE = pathlib.Path(rankedrange.__file__).parent


def _sibling_private_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "rankedrange"
        if internal:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.name}:{node.lineno} imports {alias.name}"


def test_no_private_names_imported_across_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in _sibling_private_imports(path)]
    assert found == []
