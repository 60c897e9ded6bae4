"""Every module of the package uses each name it imports.

Checked with the standard library's ``ast`` alone: a name counts as used
when the module loads it anywhere, in code or in an annotation (string
annotations are parsed too).  ``__init__.py`` files, which import to
re-export, and ``from __future__`` imports are skipped.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "spandep"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def imported_names(tree) -> dict[str, int]:
    """Each name an import binds, with the line of the import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotation = getattr(node, "annotation", None) or getattr(
            node, "returns", None)
        if isinstance(annotation, ast.Constant) and \
                isinstance(annotation.value, str):
            used |= used_names(ast.parse(annotation.value, mode="eval"))
    return used


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"autodiff.py", "formats.py",
                                         "parts.py"}


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(PACKAGE)) for p in MODULES])
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used_names(tree)}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Optional, List\n"
                     "def f(x: 'Optional[int]') -> None:\n    return x\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "List"}
