"""The declared dependencies match the imports the package makes."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _imported_packages(path):
    """The top-level package of every absolute import in a source file,
    function-local ones included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "sperner").rglob("*.py"))
    assert sources
    outside = {(path.relative_to(ROOT).as_posix(), name)
               for path in sources for name in _imported_packages(path)
               if name != "sperner" and name not in sys.stdlib_module_names}
    assert not outside


def test_pyproject_declares_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert not project.get("dependencies")
