"""The package has no runtime dependencies: every import in its sources is
relative or from the standard library, and ``pyproject.toml`` declares none."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "pocover").glob("*.py"))


def _outside_imports(path: Path) -> list[str]:
    """The top-level names of the absolute imports in ``path`` that are not
    standard library modules."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [n for n in names if n.partition(".")[0] not in sys.stdlib_module_names]


def test_sources_import_only_the_standard_library():
    assert len(SOURCES) >= 9
    assert {p.name: _outside_imports(p) for p in SOURCES} == {p.name: [] for p in SOURCES}


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project.get("dependencies", []) == []
