"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "funalg")
                 .glob("*.py"))


def _imported_modules(path: Path) -> list[str]:
    """The absolute module names that the file at path imports."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return names


def test_sources_are_found():
    assert "codec.py" in {p.name for p in SOURCES}
    assert "dataclasses" in _imported_modules(SOURCES[0].with_name("codec.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = [m for m in _imported_modules(path)
               if m.split(".")[0] != "funalg"
               and m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
