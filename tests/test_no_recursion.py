"""No function in funalg calls itself, directly or through others.

Every walker over terms, formulas, derivations and bounds runs on an
explicit stack or as a derivation.fold rule, so that its depth is not
bounded by the host's recursion limit.  This guard parses the sources and
fails on any function whose body calls it directly: by its name, or as
self.name or cls.name in a method; and on any cycle of calls among the
functions of one module (A calls B calls A), each call resolved to the
function its name means where it is made.
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


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own(node: ast.AST) -> list[ast.AST]:
    """The nodes below node, down to and with the functions and classes
    it defines but not into them."""
    out, work = [], list(ast.iter_child_nodes(node))
    while work:
        n = work.pop()
        out.append(n)
        if not isinstance(n, _DEFS):
            work.extend(ast.iter_child_nodes(n))
    return out


def _call_graph(tree: ast.Module) -> dict[str, set[str]]:
    """Each function's dotted name -> the functions of the module it
    calls: a name resolves to the innermost enclosing scope that defines
    it, self.name or cls.name to a method of the enclosing class."""
    graph: dict[str, set[str]] = {}
    # (node, its dotted name, {name: dotted name} in scope inside it,
    # {method name: dotted name} of the enclosing class)
    work = [(tree, "", {}, {})]
    while work:
        node, where, names, cls = work.pop()
        own = _own(node)
        body = [n for n in own if isinstance(n, _DEFS)]
        defs = {n.name: f"{where}{n.name}" for n in body}
        if isinstance(node, ast.ClassDef):  # methods are not in scope
            cls, inner = defs, names
        else:
            inner = {**names, **defs}
        work += [(n, f"{where}{n.name}.", inner, cls) for n in body]
        if isinstance(node, ast.ClassDef) or node is tree:
            continue
        calls = graph.setdefault(where[:-1], set())
        for c in own:
            if not isinstance(c, ast.Call):
                continue
            f = c.func
            if isinstance(f, ast.Name) and f.id in inner:
                calls.add(inner[f.id])
            elif (isinstance(f, ast.Attribute) and f.attr in cls
                  and isinstance(f.value, ast.Name)
                  and f.value.id in ("self", "cls")):
                calls.add(cls[f.attr])
    return graph


def on_call_cycles(path: Path) -> list[str]:
    """module:function, sorted, for each function in the file that calls
    itself through another function of the file."""
    graph = _call_graph(ast.parse(path.read_text(encoding="utf-8")))
    found = []
    for f, calls in graph.items():
        seen, work = set(), [g for g in calls if g != f]
        while work:
            g = work.pop()
            if g == f:
                found.append(f"{path.stem}:{f}")
                break
            if g not in seen:
                seen.add(g)
                work.extend(graph.get(g, ()))
    return sorted(found)


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


def test_no_functions_call_each_other_in_a_cycle():
    assert [f for p in SOURCES for f in on_call_cycles(p)] == []


def test_guard_flags_a_cycle_of_calls(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text("def a(n):\n"
                   "    return b(n - 1) if n else 0\n"
                   "\n"
                   "def b(n):\n"
                   "    return c(n)\n"
                   "\n"
                   "def c(n):\n"
                   "    return a(n)\n"
                   "\n"
                   "class K:\n"
                   "    def go(self, n):\n"
                   "        return self.back(n)\n"
                   "\n"
                   "    def back(self, n):\n"
                   "        return self.go(n - 1) if n else 0\n"
                   "\n"
                   "def outer():\n"
                   "    def a():\n"
                   "        return 1\n"
                   "    return a()\n"
                   "\n"
                   "def fine(n):\n"
                   "    return outer() + len([n])\n", encoding="utf-8")
    assert on_call_cycles(src) == ["sample:K.back", "sample:K.go",
                                   "sample:a", "sample:b", "sample:c"]
