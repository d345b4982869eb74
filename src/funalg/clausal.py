"""The CL (Clausal Language) frontend.

Quasi-terms and literals are interned nodes (see derivation.Interned);
the literals Rel and OracleMem are also the atoms of the quasi-bounded
formulas of funalg.compiler.  Parses clausal function definitions, checks
the refinement discipline (the clause set must be reconstructible by the
five refinement rules, so antecedents are pairwise disjoint and
exhaustive), checks the restrictions on recursive definitions, completes
relaxed definitions to strict form, and interprets definitions directly,
with eval_term_direct, the one quasi-term interpreter, valuing terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

from .codec import head, nat, pair, tail
from .derivation import Interned, fold
from .evaluator import Budget, BudgetExceeded, Meter

# --- Quasi-terms ------------------------------------------------------------
#
# Quasi-terms are interned (see derivation.Interned): a term built twice is
# one object, so terms compare and hash in O(1) however deep they are.


class Zero(Interned):
    __slots__ = ()


class Var(Interned):
    __slots__ = ("name",)


class Succ(Interned):
    __slots__ = ("arg",)


class TPair(Interned):
    __slots__ = ("left", "right")


class TAdd(Interned):
    __slots__ = ("left", "right")


class TMul(Interned):
    __slots__ = ("left", "right")


class App(Interned):
    __slots__ = ("fname", "arg")


QuasiTerm = Zero | Var | Succ | TPair | TAdd | TMul | App


# The shape of quasi-terms, stated once by term_kids and term_build.  The
# walkers below are rules for derivation.fold on it; anything that is not
# a compound term is a leaf, which each rule handles or rejects.


def term_kids(t: QuasiTerm) -> tuple:
    """The child terms of t, left to right."""
    cls = type(t)
    if cls is Succ or cls is App:
        return (t.arg,)
    if cls is TPair or cls is TAdd or cls is TMul:
        return (t.left, t.right)
    return ()


def term_build(t: QuasiTerm, kids) -> QuasiTerm:
    """The compound term t with its child terms replaced by kids."""
    return App(t.fname, *kids) if type(t) is App else type(t)(*kids)


def term_vars(t: QuasiTerm) -> set[str]:
    return fold(t, term_kids,
                lambda n, k: {n.name} if type(n) is Var else set().union(*k))


def _var_order(t: QuasiTerm) -> tuple[str, ...]:
    """The variables of t, left to right, each at its first occurrence."""
    return fold(t, term_kids, lambda n, k: (n.name,) if type(n) is Var
                else tuple(dict.fromkeys(v for vs in k for v in vs)))


def _renames_nothing(sub: dict[str, str]) -> bool:
    return list(sub) == list(sub.values())


def term_subst(t: QuasiTerm, sub: dict[str, str]) -> QuasiTerm:
    if _renames_nothing(sub):
        return t

    def rule(n: QuasiTerm, kids: list[QuasiTerm]) -> QuasiTerm:
        if type(n) is Var:
            return Var(sub.get(n.name, n.name))
        return term_build(n, kids) if kids else n
    return fold(t, term_kids, rule)


def _apps_rule(t: QuasiTerm, kids: list[list[App]]) -> list[App]:
    apps = [a for k in kids for a in k]
    if type(t) is App:
        apps.append(t)
    return apps


def term_apps(t: QuasiTerm) -> list[App]:
    """The applications in t, innermost and leftmost first."""
    return fold(t, term_kids, _apps_rule)


# --- Literals and clauses ---------------------------------------------------
#
# Literals are interned like quasi-terms; negated is the last field of Rel
# and OracleMem.


class AppEq(Interned):
    __slots__ = ("fname", "arg", "out")


class VarZero(Interned):
    __slots__ = ("v",)


class VarSucc(Interned):
    __slots__ = ("v", "w")


class VarPair(Interned):
    __slots__ = ("v", "w1", "w2")


def _negation(negated: bool) -> bool:
    """negated, checked before the intern table, where 1 finds True."""
    if type(negated) is not bool:
        raise TypeError(f"negated must be a bool, got {negated!r}")
    return negated


class Rel(Interned):
    __slots__ = ("left", "rel", "right", "negated")

    def __new__(cls, left: QuasiTerm, rel: str, right: QuasiTerm,
                negated: bool = False):
        negated = _negation(negated)
        if rel not in ("=", "<"):
            raise ValueError(
                f"unknown relation {rel!r}: expected '=' or '<'")
        return super().__new__(cls, left, rel, right, negated)


class OracleMem(Interned):
    __slots__ = ("term", "negated")

    def __new__(cls, term: QuasiTerm, negated: bool = False):
        return super().__new__(cls, term, _negation(negated))


Literal = AppEq | VarZero | VarSucc | VarPair | Rel | OracleMem


# The shape of literals, stated once: per kind, the fields holding
# quasi-terms, the fields naming variables it reads, the fields naming
# variables it binds, and the tag of its refinement key (see _lit_key).
_LIT_SHAPE = {
    AppEq: (("arg",), (), ("out",), "app"),
    VarZero: ((), ("v",), (), "zero"),
    VarSucc: ((), ("v",), ("w",), "succ"),
    VarPair: ((), ("v",), ("w1", "w2"), "pair"),
    Rel: (("left", "right"), (), (), "rel"),
    OracleMem: (("term",), (), (), "mem"),
}


def _lit_map(lit: Literal, on_term, on_name) -> Literal:
    """lit with on_term applied to its terms, in field order, and on_name
    to the variables it reads and binds."""
    terms, used, binders, _ = _LIT_SHAPE[type(lit)]
    names = used + binders
    return type(lit)(*(on_term(v) if f in terms else on_name(v) if f in names
                       else v for f, v in zip(lit.__slots__, lit._fields())))


def lit_subst(lit: Literal, sub: dict[str, str]) -> Literal:
    if _renames_nothing(sub):
        return lit
    return _lit_map(lit, lambda t: term_subst(t, sub),
                    lambda v: sub.get(v, v))


def _lit_terms(lit: Literal) -> list[QuasiTerm]:
    return [getattr(lit, f) for f in _LIT_SHAPE[type(lit)][0]]


def lit_binders(lit: Literal) -> tuple[str, ...]:
    return tuple(getattr(lit, f) for f in _LIT_SHAPE[type(lit)][2])


def lit_used_vars(lit: Literal) -> set[str]:
    used = {getattr(lit, f) for f in _LIT_SHAPE[type(lit)][1]}
    return used.union(*map(term_vars, _lit_terms(lit)))


def _first_unbound(names, bound: set[str]) -> str | None:
    return next((v for v in names if v not in bound), None)


@dataclass(frozen=True)
class Clause:
    pattern: QuasiTerm
    literals: tuple[Literal, ...]
    result: QuasiTerm


@dataclass(frozen=True)
class ClausalDef:
    name: str
    clauses: tuple[Clause, ...]

    @cached_property
    def kind(self) -> str:
        """recursive if some clause applies the definition's own name,
        else explicit."""
        calls = (f for c in self.clauses for f in _clause_calls(c))
        return "recursive" if self.name in calls else "explicit"

    @cached_property
    def _strict(self) -> "ClausalDef":
        # kept once made; a refinement failure is not, so it raises again.
        _, clauses = _run_walk(self, complete=True)
        return ClausalDef(self.name, tuple(clauses))


def _clause_calls(c: Clause) -> list[str]:
    """The functions a clause applies, in order: per literal, an AppEq's
    own function, then those applied inside its terms; then the result's."""
    names = []
    for lit in c.literals:
        if type(lit) is AppEq:
            names.append(lit.fname)
        for t in _lit_terms(lit):
            names.extend(a.fname for a in term_apps(t))
    names.extend(a.fname for a in term_apps(c.result))
    return names


# --- Errors -----------------------------------------------------------------


class CLSyntaxError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.line, self.col = line, col


class RefinementError(ValueError):
    pass


class RestrictionError(ValueError):
    pass


class MeasureViolation(RuntimeError):
    pass


class ClausalEvalError(RuntimeError):
    pass


class UnboundVariableError(ValueError):
    pass


# --- Parser -----------------------------------------------------------------


def _tokenize(text: str):
    toks = []
    line, col, i, n = 1, 1, 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line, col, i = line + 1, 1, i + 1
            continue
        if c.isspace():
            i, col = i + 1, col + 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        two = text[i:i + 2]
        if two == "->":
            toks.append(("sym", "->", line, col))
            i, col = i + 2, col + 2
            continue
        if c in "{}();,&!=<+*":
            toks.append(("sym", c, line, col))
            i, col = i + 1, col + 1
            continue
        if c == "0":
            toks.append(("zero", "0", line, col))
            i, col = i + 1, col + 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_'"):
                j += 1
            toks.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        raise CLSyntaxError(f"unexpected character {c!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self, k=0):
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    def err(self, msg):
        t = self.peek()
        raise CLSyntaxError(msg, t[2], t[3])

    def expect(self, val):
        t = self.next()
        if t[1] != val:
            raise CLSyntaxError(f"expected {val!r}, got {t[1]!r}", t[2], t[3])
        return t

    def at_sym(self, val):
        t = self.peek()
        return t[0] == "sym" and t[1] == val

    def parse_term(self) -> QuasiTerm:
        """term := sum of products of atoms, '+' and '*' left-associative
        and '*' binding tighter; atom := 0 | var | (term, term) | S(term)
        | f(term).

        Brackets are parsed on an explicit stack, so nesting depth is not
        bounded by the host's recursion limit.  An entry saves the
        enclosing term's sum and product so far and what the bracket
        builds: ("pair", None) before its comma, ("pair", a) after it,
        ("app", name) for S(...) and f(...).
        """
        # a token's value tells a symbol from an identifier or 0, and the
        # position never passes the final eof token
        toks = self.toks
        stack: list[tuple] = []
        total = prod = None
        while True:
            t = toks[self.pos]
            if t[0] == "zero":
                self.pos += 1
                atom = Zero()
            elif t[1] == "(":
                self.pos += 1
                stack.append((total, prod, "pair", None))
                total = prod = None
                continue
            elif t[0] == "ident":
                self.pos += 1
                if toks[self.pos][1] == "(":
                    self.pos += 1
                    stack.append((total, prod, "app", t[1]))
                    total = prod = None
                    continue
                if t[1] == "S":
                    self.err("S requires an argument")
                atom = Var(t[1])
            else:
                self.err(f"expected term, got {t[1]!r}")
            # extend the product by the atom; while a term ends, close the
            # bracket it sits in, which yields the next atom
            while True:
                prod = atom if prod is None else TMul(prod, atom)
                op = toks[self.pos][1]
                if op == "*":
                    self.pos += 1
                    break
                term = prod if total is None else TAdd(total, prod)
                if op == "+":
                    self.pos += 1
                    total, prod = term, None
                    break
                if not stack:
                    return term
                total, prod, kind, data = stack.pop()
                if kind == "pair" and data is None:
                    self.expect(",")
                    stack.append((total, prod, "pair", term))
                    total = prod = None
                    break
                self.expect(")")
                if kind == "pair":
                    atom = TPair(data, term)
                else:
                    atom = Succ(term) if data == "S" else App(data, term)

    def parse_lit(self):
        negated = False
        while self.at_sym("!"):
            self.next()
            negated = not negated
        t1 = self.parse_term()
        nxt = self.peek()
        if nxt[0] == "ident" and nxt[1] == "in":
            self.next()
            x = self.next()
            if x[1] != "X":
                raise CLSyntaxError("membership is only in the oracle X",
                                    x[2], x[3])
            return OracleMem(t1, negated)
        if self.at_sym("=") or self.at_sym("<"):
            rel = self.next()[1]
            t2 = self.parse_term()
            return Rel(t1, rel, t2, negated)
        self.err("expected relation in literal")

    def has_arrow_before_semi(self) -> bool:
        k = 0
        while True:
            t = self.peek(k)
            if t[0] == "eof" or t[1] in (";", "}"):
                return False
            if t[1] == "->":
                return True
            k += 1

    def parse_clause(self, fname: str) -> Clause:
        lits: list = []
        if self.has_arrow_before_semi():
            lits.append(self.parse_lit())
            while self.at_sym("&"):
                self.next()
                lits.append(self.parse_lit())
            self.expect("->")
        t = self.next()
        if t[0] != "ident" or t[1] != fname:
            raise CLSyntaxError(f"clause head must be {fname}", t[2], t[3])
        self.expect("(")
        patt = self.parse_term()
        self.expect(")")
        self.expect("=")
        result = self.parse_term()
        self.expect(";")
        return Clause(patt, tuple(lits), result)

    def parse_def(self, declared: set[str]) -> ClausalDef:
        t = self.next()
        if t[1] != "def":
            raise CLSyntaxError("expected 'def'", t[2], t[3])
        nm = self.next()
        if nm[0] != "ident":
            raise CLSyntaxError("expected function name", nm[2], nm[3])
        name = nm[1]
        if name in declared:
            raise CLSyntaxError(f"duplicate definition {name!r}",
                                nm[2], nm[3])
        self.expect("{")
        clauses = []
        while not self.at_sym("}"):
            clauses.append(self.parse_clause(name))
        self.expect("}")
        clauses = [_classify_clause(c, declared | {name}) for c in clauses]
        for c in clauses:
            _validate_pattern(c.pattern)
        calls = [f for c in clauses for f in _clause_calls(c)]
        for f in calls:
            if f != name and f not in declared:
                raise CLSyntaxError(f"undeclared function {f!r}",
                                    nm[2], nm[3])
        return ClausalDef(name, tuple(clauses))


def _classify_clause(c: Clause, known_fns: set[str]) -> Clause:
    """Resolve the binder literal shapes of a parsed clause.

    `g(t) = z` with z unbound becomes AppEq; `v = 0` / `v = S(w)` /
    `v = (w1,w2)` with unbound w's become the pattern-split shapes.
    """
    bound = set(term_vars(c.pattern))
    out = []
    for lit in c.literals:
        new = lit
        if isinstance(lit, Rel) and lit.rel == "=" and not lit.negated:
            l, r = lit.left, lit.right
            if (isinstance(l, App) and isinstance(r, Var)
                    and r.name not in bound and l.fname in known_fns):
                new = AppEq(l.fname, l.arg, r.name)
            elif isinstance(l, Var) and l.name in bound:
                if isinstance(r, Zero):
                    new = VarZero(l.name)
                elif (isinstance(r, Succ) and isinstance(r.arg, Var)
                        and r.arg.name not in bound):
                    new = VarSucc(l.name, r.arg.name)
                elif (isinstance(r, TPair) and isinstance(r.left, Var)
                        and isinstance(r.right, Var)
                        and r.left.name not in bound
                        and r.right.name not in bound
                        and r.left.name != r.right.name):
                    new = VarPair(l.name, r.left.name, r.right.name)
        out.append(new)
        bound.update(lit_binders(new))
        bound.update(lit_used_vars(new))
    return Clause(c.pattern, tuple(out), c.result)


_PATTERN_NODES = (Zero, Var, Succ, TPair)


def _validate_pattern(p: QuasiTerm):
    """RefinementError for a node that is not 0, a variable, S or a pair,
    else for a variable that occurs twice (the least such name)."""
    # descend only through valid nodes, so the leftmost outermost invalid
    # node is the one reported; two occurrences of a variable meet at a pair
    repeated: set[str] = set()

    def kids(t: QuasiTerm) -> tuple:
        return term_kids(t) if type(t) in _PATTERN_NODES else ()

    def rule(t: QuasiTerm, vs: list[set[str]]) -> set[str]:
        if type(t) not in _PATTERN_NODES:
            raise RefinementError(f"invalid pattern {term_str(t)}")
        if type(t) is TPair:
            repeated.update(vs[0] & vs[1])
        return {t.name} if type(t) is Var else set().union(*vs)
    fold(p, kids, rule)
    if repeated:
        raise RefinementError(f"repeated pattern variable {min(repeated)!r}")


def parse_cl(text: str) -> list[ClausalDef]:
    """Parse a CL program into definitions in declaration order."""
    p = _Parser(text)
    defs: list[ClausalDef] = []
    declared: set[str] = set()
    while p.peek()[0] != "eof":
        d = p.parse_def(declared)
        defs.append(d)
        declared.add(d.name)
    if not defs:
        p.err("empty program")
    return defs


# --- Printer ----------------------------------------------------------------


_TERM_FORMATS = {Zero: "0", Succ: "S({})", TPair: "({}, {})",
                 TAdd: "{} + {}", TMul: "{} * {}"}


def _str_rule(t: QuasiTerm, s: list[str]) -> str:
    if type(t) is Var:
        return t.name
    if type(t) is App:
        return f"{t.fname}({s[0]})"
    return _TERM_FORMATS[type(t)].format(*s)


def term_str(t: QuasiTerm) -> str:
    return fold(t, term_kids, _str_rule)


_LIT_FORMATS = {AppEq: "{fname}({arg}) = {out}", VarZero: "{v} = 0",
                VarSucc: "{v} = S({w})", VarPair: "{v} = ({w1}, {w2})",
                Rel: "{left} {rel} {right}", OracleMem: "{term} in X"}


def lit_str(lit: Literal) -> str:
    parts = dict(zip(lit.__slots__, lit._fields()))
    parts.update((f, term_str(parts[f])) for f in _LIT_SHAPE[type(lit)][0])
    s = _LIT_FORMATS[type(lit)].format_map(parts)
    return f"! {s}" if parts.get("negated") else s


def print_cl(defs) -> str:
    if isinstance(defs, ClausalDef):
        defs = [defs]
    chunks = []
    for d in defs:
        lines = [f"def {d.name} {{"]
        for c in d.clauses:
            head_s = f"{d.name}({term_str(c.pattern)}) = {term_str(c.result)};"
            if c.literals:
                ants = " & ".join(lit_str(l) for l in c.literals)
                lines.append(f"  {ants} -> {head_s}")
            else:
                lines.append(f"  {head_s}")
        lines.append("}")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


# --- Normalization to strict form -------------------------------------------


class _Fresh:
    """Names base1, base2, ... that are not taken.  taken() gives the
    names in use; it runs on the first call, as most walks need none."""

    def __init__(self, taken: Callable[[], set[str]]):
        self.taken_by, self.n = taken, 0

    @cached_property
    def taken(self) -> set[str]:
        return set(self.taken_by())

    def __call__(self, base: str = "q") -> str:
        while True:
            self.n += 1
            name = f"{base}{self.n}"
            if name not in self.taken:
                self.taken.add(name)
                return name


def _clause_all_vars(c: Clause) -> set[str]:
    vs = term_vars(c.pattern) | term_vars(c.result)
    for lit in c.literals:
        vs |= lit_used_vars(lit) | set(lit_binders(lit))
    return vs


def _flatten_pattern(c: Clause, argvar: str) -> Clause:
    """Move a head pattern into antecedent literals over a plain variable."""
    _validate_pattern(c.pattern)
    fresh = _Fresh(lambda: _clause_all_vars(c) | {argvar})
    lits: list[Literal] = []
    subs: dict[str, str] = {}

    # The fold runs on occurrences (variable, pattern), one per position;
    # kids splits each in pre-order and names the parts that split further.
    def kids(o: tuple) -> list:
        v, p = o
        cls = type(p)
        if cls is Zero:
            lits.append(VarZero(v))
        elif cls is Var:
            subs[p.name] = v
        else:  # S or a pair, as the pattern is valid
            ws = [k.name if type(k) is Var else fresh() for k in term_kids(p)]
            lits.append(VarSucc(v, *ws) if cls is Succ else VarPair(v, *ws))
            return [(w, k) for w, k in zip(ws, term_kids(p))
                    if type(k) is not Var]
        return []

    fold((argvar, c.pattern), kids, lambda o, _: None)
    body = [lit_subst(l, subs) for l in c.literals]
    return Clause(Var(argvar), tuple(lits) + tuple(body),
                  term_subst(c.result, subs))


def _unnest_clause(c: Clause) -> Clause:
    """Replace nested applications by AppEq literals, innermost first."""
    fresh = _Fresh(lambda: _clause_all_vars(c))
    out: list[Literal] = []

    # The fold runs on occurrences [term, name], one per position, so an App
    # object that occurs twice is unnested twice.  kids names each App in
    # pre-order and the rule emits its AppEq in post-order, as a recursive
    # descent that names an App before stripping its argument would.
    def kids(o: list) -> list:
        if type(o[0]) is App:
            o[1] = fresh("z")
        return [[k, None] for k in term_kids(o[0])]

    def rule(o: list, args: list[QuasiTerm]) -> QuasiTerm:
        t, z = o
        if z is None:
            return term_build(t, args) if args else t
        out.append(AppEq(t.fname, args[0], z))
        return Var(z)

    def strip(t: QuasiTerm) -> QuasiTerm:
        return fold([t, None], kids, rule)

    for lit in c.literals:
        out.append(_lit_map(lit, strip, lambda v: v) if _lit_terms(lit)
                   else lit)
    result = strip(c.result)
    return Clause(c.pattern, tuple(out), result)


def _normalize(d: ClausalDef) -> tuple[str, list[Clause]]:
    if isinstance(d.clauses[0].pattern, Var):
        argvar = d.clauses[0].pattern.name
    else:
        taken = set().union(*map(_clause_all_vars, d.clauses))
        argvar = _Fresh(lambda: taken)("x") if "x" in taken else "x"
    clauses = [_unnest_clause(_flatten_pattern(c, argvar))
               for c in d.clauses]
    return argvar, clauses


# --- Refinement checking and strict completion -------------------------------


@dataclass
class _State:
    key: float          # original clause position (defaults get fractions)
    lits: tuple         # the clause's literals, of which ...
    result: QuasiTerm
    pos: int = 0        # ... those before pos are consumed

    @property
    def first(self) -> Literal:
        return self.lits[self.pos]


def _lit_key(lit: Literal) -> tuple:
    """Identity of a literal up to the names it binds: its tag, then its
    other fields in order."""
    _, _, bind, tag = _LIT_SHAPE[type(lit)]
    return (tag, *(v for f, v in zip(lit.__slots__, lit._fields())
                   if f not in bind))


def _canon_binders(side: list[_State], bound: set[str],
                   fresh: _Fresh) -> tuple[Literal, list[_State]]:
    """Give the binder literals heading a split side common binder names."""
    names = {lit_binders(s.first) for s in side}
    if len(names) == 1:
        wanted = names.pop()
        for b in wanted:
            if b in bound:
                raise RefinementError(
                    f"stale variable reuse: {b!r} already bound")
    else:
        wanted = tuple(fresh("w") for _ in lit_binders(side[0].first))
    canon = lit_subst(side[0].first,
                      dict(zip(lit_binders(side[0].first), wanted)))
    rest = []
    for s in side:
        sub = dict(zip(lit_binders(s.first), wanted))
        if _renames_nothing(sub):
            rest.append(_State(s.key, s.lits, s.result, s.pos + 1))
        else:
            lits = tuple(lit_subst(l, sub) for l in s.lits[s.pos + 1:])
            rest.append(_State(s.key, lits, term_subst(s.result, sub)))
    return canon, rest


def _walk(states: list[_State], trace: list[str], complete: bool,
          fresh: _Fresh, argvar: str, out: list[tuple[float, Clause]]):
    """Rebuild the refinement tree of states, appending its trace lines
    and its strict clauses to trace and out.

    The walk runs on an explicit work stack, in the order of a recursion
    over the tree (so the trace, the fresh names and the first error are
    those of one): an item is a group of states, the length of the path
    of consumed literals it extends, the literal it consumes and its trace
    depth.  The path and the variables it binds are kept once and cut back
    when an item is reached, so a literal costs O(1).  The second side of
    a zero/successor or zero/pair split is pushed with `split` set: its
    binders get their common names when it is reached."""
    path: list[Literal] = []
    bound = {argvar}  # argvar and the binders on the path
    todo: list[tuple] = [(states, 0, None, 0, False)]
    while todo:
        group, n, lit, depth, split = todo.pop()
        for old in path[n:]:
            bound.difference_update(lit_binders(old))
        del path[n:]
        if split:
            lit, group = _canon_binders(group, bound, fresh)
        if lit is not None:
            path.append(lit)
            bound.update(lit_binders(lit))
        indent = "  " * depth
        done = [s for s in group if s.pos == len(s.lits)]
        if done:
            if len(group) > 1:
                raise RefinementError(
                    "overlapping clauses: a complete clause coexists with "
                    "further refinements")
            s = done[0]
            if not term_vars(s.result) <= bound:
                v = _first_unbound(_var_order(s.result), bound)
                raise RefinementError(f"unbound variable {v!r} in result")
            if not complete:
                trace.append(
                    f"{indent}complete clause -> {term_str(s.result)}")
            out.append((s.key, Clause(Var(argvar), tuple(path), s.result)))
            continue

        firsts = [s.first for s in group]
        keys = {_lit_key(l) for l in firsts}
        for lit in firsts:
            if not lit_used_vars(lit) <= bound:
                # the literal's own order: the variables it reads, then
                # its terms'
                used = [getattr(lit, f) for f in _LIT_SHAPE[type(lit)][1]]
                v = _first_unbound(used + [v for t in _lit_terms(lit)
                                           for v in _var_order(t)], bound)
                raise RefinementError(
                    f"unbound variable {v!r} in literal {lit_str(lit)}")

        # Rule 1: a common function-application literal is consumed by all.
        if len(keys) == 1 and isinstance(firsts[0], AppEq):
            for lit in firsts:
                if lit.out in bound:
                    raise RefinementError(
                        f"stale variable reuse: {lit.out!r} already bound")
            canon, rest = _canon_binders(group, bound, fresh)
            if not complete:
                trace.append(f"{indent}introduce {lit_str(canon)}")
            todo.append((rest, len(path), canon, depth, False))
            continue

        kinds = {k[0] for k in keys}

        def or_default(side: list[_State], make_lit,
                       missing: str) -> list[_State]:
            # an empty side of a split is non-exhaustive; completion gives
            # it one clause, on make_lit(), answering 0 after the group's
            # clauses
            if side:
                return side
            if not complete:
                raise RefinementError(f"non-exhaustive: missing {missing}")
            return [_State(max(s.key for s in group) + 0.25, (make_lit(),),
                           Zero())]

        def past_first(side: list[_State]) -> tuple:
            rest = [_State(s.key, s.lits, s.result, s.pos + 1) for s in side]
            return rest, len(path), side[0].first, depth + 1, False

        # Rules 2/3: zero/successor or zero/pair split on one variable.
        if kinds <= {"zero", "succ", "pair"}:
            subj = {k[1] for k in keys}
            if len(subj) != 1:
                raise RefinementError(
                    f"clauses split on different variables: {sorted(subj)}")
            v = subj.pop()
            if "succ" in kinds and "pair" in kinds:
                raise RefinementError(f"mixed successor/pair split on {v!r}")
            succ = "succ" in kinds
            zeros = or_default(
                [s for s in group if isinstance(s.first, VarZero)],
                lambda: VarZero(v), f"case {v} = 0")
            nonz = or_default(
                [s for s in group if not isinstance(s.first, VarZero)],
                lambda: (VarSucc(v, fresh("w")) if succ
                         else VarPair(v, fresh("w"), fresh("w"))),
                f"non-zero case for {v}")
            if not complete:
                trace.append(
                    f"{indent}rule {2 if succ else 3} split on {v}: "
                    f"0 | {'S(w)' if succ else '(w1,w2)'}")
            todo.append((nonz, len(path), None, depth + 1, True))
            todo.append(past_first(zeros))
            continue

        # Rule 4: relation or oracle-membership split.
        if kinds <= {"rel"} or kinds <= {"mem"}:
            bodies = {k[:-1] for k in keys}
            if len(bodies) != 1:
                raise RefinementError(
                    "clauses split on different relations: "
                    + " vs ".join(sorted(lit_str(l) for l in firsts)))
            kind, fields = type(firsts[0]), firsts[0]._fields()[:-1]
            base, negd = kind(*fields, False), kind(*fields, True)
            pos = or_default([s for s in group if not s.first.negated],
                             lambda: base, f"case {lit_str(base)}")
            neg = or_default([s for s in group if s.first.negated],
                             lambda: negd, f"case {lit_str(negd)}")
            if not complete:
                trace.append(f"{indent}rule 4 split on {lit_str(base)}")
            todo.append(past_first(neg))
            todo.append(past_first(pos))
            continue

        raise RefinementError(
            "clauses are not a refinement: first literals "
            + " vs ".join(sorted(lit_str(l) for l in firsts)))


def _run_walk(d: ClausalDef, complete: bool):
    # the trace replays a check; completion keeps only its first line
    argvar, clauses = _normalize(d)
    fresh = _Fresh(lambda: {argvar}.union(*map(_clause_all_vars, clauses)))
    states = [_State(float(i), c.literals, c.result)
              for i, c in enumerate(clauses)]
    trace: list[str] = [f"argument variable {argvar}"]
    out: list[tuple[float, Clause]] = []
    _walk(states, trace, complete, fresh, argvar, out)
    out.sort(key=lambda kv: kv[0])
    return trace, [c for _, c in out]


def check_refinement(d: ClausalDef) -> list[str]:
    """Verify the clause set is a refinement tree; return the trace.

    The trace is a human-readable replay of the refinement steps proving
    the antecedents pairwise disjoint and exhaustive.  Raises
    RefinementError otherwise."""
    return _run_walk(d, complete=False)[0]


def complete_to_strict(d: ClausalDef) -> ClausalDef:
    """Normalize to strict form: plain-variable heads, unnested
    applications, and default clauses (yielding 0) making the antecedents
    exhaustive and disjoint.  The form is computed once per definition
    object; raises RefinementError, on every call, if d has none."""
    return d._strict


# --- Restrictions on recursive definitions ----------------------------------


@dataclass(frozen=True)
class RestrictionReport:
    """ok: the restrictions hold.  dynamic_measure: some self-call argument
    is not provably below the argument, so eval_clausal checks it.
    parameterized: the definition calls helpers in parameterized form.
    pair_descent: every self-call argument is a variable split off the
    argument through VarSucc/VarPair literals, at least one a VarPair, so
    it is a pair component of a number <= the argument (see
    funalg.reduction.pair_depth_d for the depth bound this gives)."""
    ok: bool
    dynamic_measure: bool
    parameterized: bool
    notes: tuple[str, ...] = ()
    pair_descent: bool = False


def check_recursive_restrictions(d: ClausalDef) -> RestrictionReport:
    """Check identity-measure and parameterization restrictions, and
    detect pair descent."""
    if d.kind != "recursive":
        raise RestrictionError(f"{d.name} is not recursive")
    sd = complete_to_strict(d)
    argvar = sd.clauses[0].pattern.name
    notes = []
    failures = []  # the notes that break parameterization
    dynamic = False
    pair_descent = True
    calls_helpers = any(
        isinstance(l, AppEq) and l.fname != d.name
        for c in sd.clauses for l in c.literals)
    for c in sd.clauses:
        below = set()      # variables provably strictly below the argument
        paired = set()     # ... and reached through at least one pair split
        for lit in c.literals:
            if isinstance(lit, (VarSucc, VarPair)):
                if lit.v == argvar or lit.v in below:
                    below.update(lit_binders(lit))
                    if isinstance(lit, VarPair) or lit.v in paired:
                        paired.update(lit_binders(lit))
            elif isinstance(lit, AppEq) and lit.fname == d.name:
                t = lit.arg
                if not (isinstance(t, Var) and t.name in paired):
                    pair_descent = False
                if not (isinstance(t, Var) and t.name in below):
                    dynamic = True
                    notes.append(
                        f"recursive call {d.name}({term_str(t)}) needs a "
                        "dynamic measure check")
        if calls_helpers:
            # parameterized form: argument (v,p), calls h(t, p) or g(p)
            first_pair = next((l for l in c.literals
                               if isinstance(l, VarPair) and l.v == argvar),
                              None)
            apps = [l for l in c.literals if isinstance(l, AppEq)]
            if apps and first_pair is None:
                failures.append(f"clause of {d.name} calls functions but "
                                "its argument is not split as (v, p)")
                continue
            for l in apps:
                # the parameter must be the rightmost leaf of the call's
                # argument tuple, shipped unchanged
                t = l.arg
                while isinstance(t, TPair):
                    t = t.right
                if not (isinstance(t, Var) and t.name == first_pair.w2):
                    failures.append(
                        f"call {l.fname}({term_str(l.arg)}) does not ship "
                        f"the parameter {first_pair.w2!r} unchanged")
    if failures:
        raise RestrictionError("; ".join(dict.fromkeys(failures)))
    return RestrictionReport(True, dynamic, calls_helpers, tuple(notes),
                             pair_descent)


# --- Direct interpretation ---------------------------------------------------


def _fn(fns, name: str):
    """The function fns gives name; UnboundVariableError if none."""
    try:
        return fns[name]
    except KeyError:
        raise UnboundVariableError(f"unbound function {name!r}") from None


def eval_term_direct(t: QuasiTerm, assign: dict[str, int], fns=None,
                     max_bits: int | None = None,
                     meter: Meter | None = None) -> int:
    """The value of t under assign, fns giving each function's Python
    callable; a variable or function missing from them raises
    UnboundVariableError.

    With max_bits, the width of every value the term takes, each node's
    and so each operand's before a sum, product or pair reads it, counts
    toward meter.peak_bits (a fresh Meter if none), and a new peak above
    max_bits raises BudgetExceeded("bits", meter).  A product is at most
    as wide as its operands together, so no operation computes a value
    wider than twice the widest one checked."""
    fns = fns or {}

    def rule(n: QuasiTerm, k: list[int]) -> int:
        cls = type(n)
        if cls is Zero:
            return 0
        if cls is Var:
            try:
                return assign[n.name]
            except KeyError:
                raise UnboundVariableError(
                    f"unbound variable {n.name!r}") from None
        if cls is Succ:
            return k[0] + 1
        if cls is TPair:
            return pair(k[0], k[1])
        if cls is TAdd:
            return k[0] + k[1]
        if cls is TMul:
            return k[0] * k[1]
        if cls is App:
            return _fn(fns, n.fname)(k[0])
        raise TypeError(n)
    if max_bits is None:
        return fold(t, term_kids, rule)
    if meter is None:
        meter = Meter()
    # a wider value is a new peak or, if a meter passed in is already
    # past the budget, over it
    lim = min(meter.peak_bits, max_bits)

    def checked(n: QuasiTerm, k: list[int]) -> int:
        nonlocal lim
        v = rule(n, k)
        if v.bit_length() > lim:
            meter.peak_bits = max(meter.peak_bits, v.bit_length())
            if v.bit_length() > max_bits:
                raise BudgetExceeded("bits", meter)
            lim = meter.peak_bits
        return v
    return fold(t, term_kids, checked)


def eval_clausal(defs, fname: str, x: int, oracle=frozenset(),
                 budget: Budget | None = None,
                 meter: Meter | None = None) -> int:
    """Interpret a CL program: evaluate fname at x.

    Every definition is brought to strict form, in order; strict terms hold
    no applications, since each is an AppEq literal.  Recursive self-calls
    are dynamically checked against the identity measure (argument
    strictly decreasing).  Raises TypeError unless x is an int,
    ValueError if x is negative and ClausalEvalError if fname, or a
    function it calls, is not in defs.

    Evaluation is one loop over an explicit stack of suspended calls, so
    the call depth is bounded by the budget, not the host's call stack.
    The meter: a step per call and per literal tried; max_depth is the
    deepest call, the root at depth 0; peak_bits the widest value: every
    call argument and every value a term takes, each checked against
    max_bits (see eval_term_direct), so no operation computes a value
    wider than about twice max_bits."""
    nat(x)
    if budget is None:
        budget = Budget()
    if meter is None:
        meter = Meter()
    env = {d.name: complete_to_strict(d) for d in defs}
    if fname not in env:
        raise ClausalEvalError(f"undefined function {fname!r}")
    max_steps, max_bits = budget.max_steps, budget.max_bits
    # the refinement walk has checked that every variable a strict term
    # reads is bound, so ev never raises UnboundVariableError
    ev = partial(eval_term_direct, max_bits=max_bits, meter=meter)

    # The current call is f at x, at depth: its clause c, drawn from the
    # iterator cs over f's clauses, runs its literal iterator lits with
    # bindings b.  A call at an AppEq literal suspends the caller as a
    # frame (f, x, depth, argvar, cs, c, lits, b, out) until the callee's
    # value is bound to out and lits resumes.
    stack: list[tuple] = []
    f, depth = fname, 0
    steps = meter.steps
    try:
        while True:
            steps += 1
            if steps > max_steps:
                raise BudgetExceeded("steps", meter)
            if depth > meter.max_depth:
                meter.max_depth = depth
            if x.bit_length() > min(meter.peak_bits, max_bits):
                meter.peak_bits = max(meter.peak_bits, x.bit_length())
                if x.bit_length() > max_bits:
                    raise BudgetExceeded("bits", meter)
            fd = env.get(f)
            if fd is None:
                raise ClausalEvalError(f"undefined function {f!r}")
            cs = iter(fd.clauses)
            c = next(cs)
            argvar = c.pattern.name
            b = {argvar: x}
            lits = iter(c.literals)
            while True:
                call = None
                for lit in lits:  # the first literal that fails skips c
                    steps += 1
                    if steps > max_steps:
                        raise BudgetExceeded("steps", meter)
                    cls = type(lit)
                    if cls is VarZero:
                        if b[lit.v] != 0:
                            break
                    elif cls is VarSucc:
                        if b[lit.v] == 0:
                            break
                        b[lit.w] = b[lit.v] - 1
                    elif cls is VarPair:
                        if b[lit.v] == 0:
                            break
                        b[lit.w1], b[lit.w2] = head(b[lit.v]), tail(b[lit.v])
                    elif cls is AppEq:
                        v = ev(lit.arg, b)
                        if lit.fname == f and v >= x:
                            raise MeasureViolation(
                                f"{f}({v}) called from {f}({x})")
                        call = lit
                        break
                    elif cls is Rel:
                        l = ev(lit.left, b)
                        r = ev(lit.right, b)
                        held = l == r if lit.rel == "=" else l < r
                        if held == lit.negated:
                            break
                    elif (ev(lit.term, b) in oracle) == lit.negated:
                        break
                else:  # c applies: return its result to the caller
                    val = ev(c.result, b)
                    if not stack:
                        return val
                    f, x, depth, argvar, cs, c, lits, b, out = stack.pop()
                    b[out] = val
                    continue
                if call is not None:
                    break
                c = next(cs, None)
                if c is None:
                    raise ClausalEvalError(
                        f"no applicable clause in {f} at {x} (internal error)")
                b = {argvar: x}
                lits = iter(c.literals)
            stack.append((f, x, depth, argvar, cs, c, lits, b, call.out))
            f, x, depth = call.fname, v, depth + 1
    finally:
        meter.steps = steps
