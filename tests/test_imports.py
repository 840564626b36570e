"""The package imports numpy, the standard library and itself, nothing else:
scipy is for test oracles only, and observability uses the stdlib."""
import ast
import sys
from pathlib import Path

import pytest

import placescan

PACKAGE_DIR = Path(placescan.__file__).parent
MODULES = sorted(PACKAGE_DIR.rglob("*.py"))
ALLOWED = {"numpy", "placescan"} | set(sys.stdlib_module_names)


def imported_roots(tree: ast.AST):
    """The top-level name of every absolute import; relative ones are the package's."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_every_module_is_checked():
    names = {path.relative_to(PACKAGE_DIR).as_posix() for path in MODULES}
    assert {"__init__.py", "core.py", "classifiers/svm.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE_DIR).as_posix())
def test_imports_only_numpy_stdlib_and_placescan(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(set(imported_roots(tree)) - ALLOWED) == []


def test_a_third_party_import_is_caught():
    tree = ast.parse("import scipy.stats\nfrom sklearn import svm\nfrom . import core\n")
    assert sorted(set(imported_roots(tree)) - ALLOWED) == ["scipy", "sklearn"]
