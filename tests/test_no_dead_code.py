"""Every top-level function and class in funalg has a caller.

Code that nothing calls is deleted rather than kept for the tests alone.
This guard parses the sources and fails on any top-level function or
class of a funalg module that no code refers to outside its own
definition.  The callers are the funalg modules and the benchmark's
modules; the package's __init__, which only re-exports, is not one.  A
reference is a bare name or an attribute, such as codec.unpair.
Constants are not checked: an atom such as derivation.SMASH may be
exported and nothing more.
"""

import ast
from pathlib import Path

import funalg

SOURCES = sorted(p for p in Path(funalg.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")
BENCH = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(path: Path) -> set[str]:
    """The names and attributes the file reads, each outside the
    top-level definition of that name."""
    names = set()
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        here = {node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(top)
                if isinstance(node, (ast.Name, ast.Attribute))}
        if isinstance(top, _DEFS):
            here.discard(top.name)
        names |= here
    return names


def unreferenced(sources: list[Path], callers: list[Path]) -> list[str]:
    """module:name for each top-level function or class in sources that
    no file in callers refers to."""
    refs = set().union(*map(_references, callers))
    return [f"{p.stem}:{node.name}" for p in sources
            for node in ast.parse(p.read_text(encoding="utf-8")).body
            if isinstance(node, _DEFS) and node.name not in refs]


def test_sources_are_found():
    assert {p.stem for p in SOURCES} >= {"codec", "harness", "cli"}
    assert "workloads" in {p.stem for p in BENCH}


def test_every_function_and_class_has_a_caller():
    assert unreferenced(SOURCES, SOURCES + BENCH) == []


def test_guard_flags_an_unreferenced_definition(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text("def used(n):\n"
                   "    return n\n"
                   "\n"
                   "def dead(n):\n"
                   "    return dead(n - 1) if n else used(n)\n"
                   "\n"
                   "class Helper:\n"
                   "    pass\n"
                   "\n"
                   "class Lonely:\n"
                   "    def make(self):\n"
                   "        return Lonely()\n", encoding="utf-8")
    caller = tmp_path / "caller.py"
    caller.write_text("import sample\n"
                      "X = sample.Helper\n", encoding="utf-8")
    assert unreferenced([src], [src, caller]) == ["sample:dead",
                                                  "sample:Lonely"]
