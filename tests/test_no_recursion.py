"""No function in funalg calls itself by name.

Every walker over terms, formulas, derivations and bounds runs on an
explicit stack or as a derivation.fold rule, so that its depth is not
bounded by the host's recursion limit.  This guard parses the sources and
fails on any function whose body calls it directly: by its name, or as
self.name or cls.name in a method.
"""

import ast
from pathlib import Path

import funalg

SOURCES = sorted(Path(funalg.__file__).parent.glob("*.py"))

# module:function -> why its recursion is bounded
EXEMPT: dict[str, str] = {}


def _calls_itself(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == fn.name:
            return True
        if (isinstance(f, ast.Attribute) and f.attr == fn.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")):
            return True
    return False


def self_calls(path: Path) -> list[str]:
    """module:function for each function in the file that calls itself."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.stem}:{fn.name}" for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            and _calls_itself(fn)]


def test_sources_are_found():
    assert {p.stem for p in SOURCES} >= {"compiler", "derivation", "cli"}


def test_no_function_calls_itself():
    found = [name for p in SOURCES for name in self_calls(p)]
    assert [n for n in found if n not in EXEMPT] == []


def test_exemptions_are_still_needed():
    found = {name for p in SOURCES for name in self_calls(p)}
    assert set(EXEMPT) <= found


def test_guard_flags_a_self_call(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text("def walk(t):\n"
                   "    def inner(u):\n"
                   "        return walk(u)\n"
                   "    return inner(t)\n"
                   "\n"
                   "class C:\n"
                   "    def go(self, n):\n"
                   "        return self.go(n - 1) if n else 0\n"
                   "\n"
                   "def fine(n):\n"
                   "    return other(n)\n", encoding="utf-8")
    assert self_calls(src) == ["sample:walk", "sample:go"]
