"""The CL (Clausal Language) frontend.

Parses clausal function definitions, checks the refinement discipline
(the clause set must be reconstructible by the five refinement rules, so
antecedents are pairwise disjoint and exhaustive), checks the restrictions
on recursive definitions, completes relaxed definitions to strict form,
and interprets definitions directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .codec import head, pair, tail
from .evaluator import Budget, BudgetExceeded, Meter

# --- Quasi-terms ------------------------------------------------------------


@dataclass(frozen=True)
class Zero:
    pass


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Succ:
    arg: "QuasiTerm"


@dataclass(frozen=True)
class TPair:
    left: "QuasiTerm"
    right: "QuasiTerm"


@dataclass(frozen=True)
class TAdd:
    left: "QuasiTerm"
    right: "QuasiTerm"


@dataclass(frozen=True)
class TMul:
    left: "QuasiTerm"
    right: "QuasiTerm"


@dataclass(frozen=True)
class App:
    fname: str
    arg: "QuasiTerm"


QuasiTerm = Zero | Var | Succ | TPair | TAdd | TMul | App


def term_vars(t: QuasiTerm) -> set[str]:
    if isinstance(t, Zero):
        return set()
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, (Succ, App)):
        return term_vars(t.arg)
    return term_vars(t.left) | term_vars(t.right)


def term_subst(t: QuasiTerm, sub: dict[str, str]) -> QuasiTerm:
    if isinstance(t, Zero):
        return t
    if isinstance(t, Var):
        return Var(sub.get(t.name, t.name))
    if isinstance(t, Succ):
        return Succ(term_subst(t.arg, sub))
    if isinstance(t, App):
        return App(t.fname, term_subst(t.arg, sub))
    return type(t)(term_subst(t.left, sub), term_subst(t.right, sub))


def term_apps(t: QuasiTerm) -> list[App]:
    if isinstance(t, (Zero, Var)):
        return []
    if isinstance(t, App):
        return term_apps(t.arg) + [t]
    if isinstance(t, Succ):
        return term_apps(t.arg)
    return term_apps(t.left) + term_apps(t.right)


# --- Literals and clauses ---------------------------------------------------


@dataclass(frozen=True)
class AppEq:
    fname: str
    arg: QuasiTerm
    out: str


@dataclass(frozen=True)
class VarZero:
    v: str


@dataclass(frozen=True)
class VarSucc:
    v: str
    w: str


@dataclass(frozen=True)
class VarPair:
    v: str
    w1: str
    w2: str


@dataclass(frozen=True)
class Rel:
    left: QuasiTerm
    rel: str  # "=" or "<"
    right: QuasiTerm
    negated: bool = False


@dataclass(frozen=True)
class OracleMem:
    term: QuasiTerm
    negated: bool = False


Literal = AppEq | VarZero | VarSucc | VarPair | Rel | OracleMem


def lit_subst(lit: Literal, sub: dict[str, str]) -> Literal:
    r = sub.get
    if isinstance(lit, AppEq):
        return AppEq(lit.fname, term_subst(lit.arg, sub), r(lit.out, lit.out))
    if isinstance(lit, VarZero):
        return VarZero(r(lit.v, lit.v))
    if isinstance(lit, VarSucc):
        return VarSucc(r(lit.v, lit.v), r(lit.w, lit.w))
    if isinstance(lit, VarPair):
        return VarPair(r(lit.v, lit.v), r(lit.w1, lit.w1), r(lit.w2, lit.w2))
    if isinstance(lit, Rel):
        return Rel(term_subst(lit.left, sub), lit.rel,
                   term_subst(lit.right, sub), lit.negated)
    return OracleMem(term_subst(lit.term, sub), lit.negated)


def lit_binders(lit: Literal) -> tuple[str, ...]:
    if isinstance(lit, AppEq):
        return (lit.out,)
    if isinstance(lit, VarSucc):
        return (lit.w,)
    if isinstance(lit, VarPair):
        return (lit.w1, lit.w2)
    return ()


def lit_used_vars(lit: Literal) -> set[str]:
    if isinstance(lit, AppEq):
        return term_vars(lit.arg)
    if isinstance(lit, (VarZero, VarSucc, VarPair)):
        return {lit.v}
    if isinstance(lit, Rel):
        return term_vars(lit.left) | term_vars(lit.right)
    return term_vars(lit.term)


@dataclass(frozen=True)
class Clause:
    pattern: QuasiTerm
    literals: tuple[Literal, ...]
    result: QuasiTerm


@dataclass(frozen=True)
class ClausalDef:
    name: str
    clauses: tuple[Clause, ...]
    kind: str  # "explicit" or "recursive"
    measure: str = "identity"
    parameterized: bool = False

    def is_recursive(self) -> bool:
        return self.kind == "recursive"


def _clause_self_calls(name: str, c: Clause) -> bool:
    for lit in c.literals:
        if isinstance(lit, AppEq) and lit.fname == name:
            return True
        for t in _lit_terms(lit):
            if any(a.fname == name for a in term_apps(t)):
                return True
    return any(a.fname == name for a in term_apps(c.result))


def _lit_terms(lit: Literal):
    if isinstance(lit, AppEq):
        return [lit.arg]
    if isinstance(lit, Rel):
        return [lit.left, lit.right]
    if isinstance(lit, OracleMem):
        return [lit.term]
    return []


def _classify_kind(name: str, clauses) -> str:
    return ("recursive"
            if any(_clause_self_calls(name, c) for c in clauses)
            else "explicit")


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


# --- Parser -----------------------------------------------------------------

_SYMBOLS = ("->", "{", "}", "(", ")", ";", ",", "&", "!", "=", "<", "+", "*")


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

    # term := mulsum with '+' / '*' left-associative, '*' binding tighter
    def parse_term(self) -> QuasiTerm:
        t = self.parse_mul()
        while self.at_sym("+"):
            self.next()
            t = TAdd(t, self.parse_mul())
        return t

    def parse_mul(self) -> QuasiTerm:
        t = self.parse_atom()
        while self.at_sym("*"):
            self.next()
            t = TMul(t, self.parse_atom())
        return t

    def parse_atom(self) -> QuasiTerm:
        t = self.peek()
        if t[0] == "zero":
            self.next()
            return Zero()
        if self.at_sym("("):
            self.next()
            a = self.parse_term()
            self.expect(",")
            b = self.parse_term()
            self.expect(")")
            return TPair(a, b)
        if t[0] == "ident":
            self.next()
            name = t[1]
            if self.at_sym("("):
                self.next()
                a = self.parse_term()
                self.expect(")")
                return Succ(a) if name == "S" else App(name, a)
            if name == "S":
                self.err("S requires an argument")
            return Var(name)
        self.err(f"expected term, got {t[1]!r}")

    def parse_lit(self):
        if self.at_sym("!"):
            self.next()
            inner = self.parse_lit()
            if isinstance(inner, Rel):
                return replace(inner, negated=not inner.negated)
            if isinstance(inner, OracleMem):
                return replace(inner, negated=not inner.negated)
            self.err("only relations and oracle atoms can be negated")
        t1 = self.parse_term()
        nxt = self.peek()
        if nxt[0] == "ident" and nxt[1] == "in":
            self.next()
            x = self.next()
            if x[1] != "X":
                raise CLSyntaxError("membership is only in the oracle X",
                                    x[2], x[3])
            return OracleMem(t1)
        if self.at_sym("=") or self.at_sym("<"):
            rel = self.next()[1]
            t2 = self.parse_term()
            return Rel(t1, rel, t2)
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
        self.expect("{")
        clauses = []
        while not self.at_sym("}"):
            clauses.append(self.parse_clause(name))
        self.expect("}")
        clauses = [_classify_clause(c, declared | {name}) for c in clauses]
        for c in clauses:
            _validate_pattern(c.pattern)
        _check_declared(name, clauses, declared)
        kind = _classify_kind(name, clauses)
        return ClausalDef(name, tuple(clauses), kind)


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


def _validate_pattern(p: QuasiTerm):
    if isinstance(p, (Zero, Var)):
        return
    if isinstance(p, Succ):
        _validate_pattern(p.arg)
        return
    if isinstance(p, TPair):
        _validate_pattern(p.left)
        _validate_pattern(p.right)
        return
    raise RefinementError(f"invalid pattern {term_str(p)}")


def _check_declared(name, clauses, declared: set[str]):
    ok = declared | {name}
    for c in clauses:
        apps = []
        for lit in c.literals:
            if isinstance(lit, AppEq):
                apps.append(lit.fname)
                apps.extend(a.fname for a in term_apps(lit.arg))
            else:
                for t in _lit_terms(lit):
                    apps.extend(a.fname for a in term_apps(t))
        apps.extend(a.fname for a in term_apps(c.result))
        for f in apps:
            if f not in ok:
                raise CLSyntaxError(f"undeclared function {f!r}", 0, 0)


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


def term_str(t: QuasiTerm) -> str:
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Succ):
        return f"S({term_str(t.arg)})"
    if isinstance(t, TPair):
        return f"({term_str(t.left)}, {term_str(t.right)})"
    if isinstance(t, TAdd):
        return f"{term_str(t.left)} + {term_str(t.right)}"
    if isinstance(t, TMul):
        return f"{term_str(t.left)} * {term_str(t.right)}"
    return f"{t.fname}({term_str(t.arg)})"


def lit_str(lit: Literal) -> str:
    if isinstance(lit, AppEq):
        return f"{lit.fname}({term_str(lit.arg)}) = {lit.out}"
    if isinstance(lit, VarZero):
        return f"{lit.v} = 0"
    if isinstance(lit, VarSucc):
        return f"{lit.v} = S({lit.w})"
    if isinstance(lit, VarPair):
        return f"{lit.v} = ({lit.w1}, {lit.w2})"
    if isinstance(lit, Rel):
        s = f"{term_str(lit.left)} {lit.rel} {term_str(lit.right)}"
        return f"! {s}" if lit.negated else s
    s = f"{term_str(lit.term)} in X"
    return f"! {s}" if lit.negated else s


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
    def __init__(self, taken: set[str]):
        self.taken = set(taken)
        self.n = 0

    def __call__(self, base: str = "q") -> str:
        while True:
            self.n += 1
            name = f"{base}{self.n}"
            if name not in self.taken:
                self.taken.add(name)
                return name


def _clause_all_vars(c: Clause) -> set[str]:
    vs = set(term_vars(c.pattern)) | set(term_vars(c.result))
    for lit in c.literals:
        vs |= lit_used_vars(lit)
        vs |= set(lit_binders(lit))
    return vs


def _flatten_pattern(c: Clause, argvar: str) -> Clause:
    """Move a head pattern into antecedent literals over a plain variable."""
    if isinstance(c.pattern, Var):
        if c.pattern.name == argvar:
            return c
        sub = {c.pattern.name: argvar}
        return Clause(Var(argvar),
                      tuple(lit_subst(l, sub) for l in c.literals),
                      term_subst(c.result, sub))
    fresh = _Fresh(_clause_all_vars(c) | {argvar})
    lits: list[Literal] = []

    def decomp(v: str, p: QuasiTerm):
        if isinstance(p, Zero):
            lits.append(VarZero(v))
        elif isinstance(p, Var):
            subs[p.name] = v
        elif isinstance(p, Succ):
            w = p.arg.name if isinstance(p.arg, Var) else fresh()
            lits.append(VarSucc(v, w))
            if not isinstance(p.arg, Var):
                decomp(w, p.arg)
        elif isinstance(p, TPair):
            w1 = p.left.name if isinstance(p.left, Var) else fresh()
            w2 = p.right.name if isinstance(p.right, Var) else fresh()
            lits.append(VarPair(v, w1, w2))
            if not isinstance(p.left, Var):
                decomp(w1, p.left)
            if not isinstance(p.right, Var):
                decomp(w2, p.right)
        else:
            raise RefinementError(f"invalid pattern {term_str(p)}")

    subs: dict[str, str] = {}
    decomp(argvar, c.pattern)
    body = [lit_subst(l, subs) for l in c.literals]
    return Clause(Var(argvar), tuple(lits) + tuple(body),
                  term_subst(c.result, subs))


def _unnest_clause(c: Clause) -> Clause:
    """Replace nested applications by AppEq literals, innermost first."""
    fresh = _Fresh(_clause_all_vars(c))
    out: list[Literal] = []

    def strip(t: QuasiTerm) -> QuasiTerm:
        if isinstance(t, (Zero, Var)):
            return t
        if isinstance(t, Succ):
            return Succ(strip(t.arg))
        if isinstance(t, App):
            z = fresh("z")
            out.append(AppEq(t.fname, strip(t.arg), z))
            return Var(z)
        return type(t)(strip(t.left), strip(t.right))

    for lit in c.literals:
        if isinstance(lit, AppEq):
            arg = strip(lit.arg)
            out.append(AppEq(lit.fname, arg, lit.out))
        elif isinstance(lit, Rel):
            out.append(Rel(strip(lit.left), lit.rel, strip(lit.right),
                           lit.negated))
        elif isinstance(lit, OracleMem):
            out.append(OracleMem(strip(lit.term), lit.negated))
        else:
            out.append(lit)
    result = strip(c.result)
    return Clause(c.pattern, tuple(out), result)


def _normalize(d: ClausalDef) -> tuple[str, list[Clause]]:
    if isinstance(d.clauses[0].pattern, Var):
        argvar = d.clauses[0].pattern.name
    else:
        argvar = "x"
        taken = set()
        for c in d.clauses:
            taken |= _clause_all_vars(c)
        f = _Fresh(taken)
        if argvar in taken:
            argvar = f("x")
    clauses = [_unnest_clause(_flatten_pattern(c, argvar))
               for c in d.clauses]
    return argvar, clauses


# --- Refinement checking and strict completion -------------------------------


@dataclass
class _State:
    key: float          # original clause position (defaults get fractions)
    lits: list
    result: QuasiTerm
    is_default: bool = False


def _lit_key(lit: Literal):
    """Identity of a first literal, ignoring the names it binds."""
    if isinstance(lit, AppEq):
        return ("app", lit.fname, lit.arg)
    if isinstance(lit, VarZero):
        return ("zero", lit.v)
    if isinstance(lit, VarSucc):
        return ("succ", lit.v)
    if isinstance(lit, VarPair):
        return ("pair", lit.v)
    if isinstance(lit, Rel):
        return ("rel", lit.left, lit.rel, lit.right, lit.negated)
    return ("mem", lit.term, lit.negated)


def _canon_binders(side: list[_State], bound: set[str],
                   fresh: _Fresh) -> tuple[Literal, list[_State]]:
    """Give the binder literals heading a split side common binder names."""
    names = {lit_binders(s.lits[0]) for s in side}
    if len(names) == 1:
        wanted = names.pop()
        for b in wanted:
            if b in bound:
                raise RefinementError(
                    f"stale variable reuse: {b!r} already bound")
    else:
        wanted = tuple(fresh("w") for _ in lit_binders(side[0].lits[0]))
    canon = lit_subst(side[0].lits[0],
                      dict(zip(lit_binders(side[0].lits[0]), wanted)))
    rest = []
    for s in side:
        own = lit_binders(s.lits[0])
        sub = dict(zip(own, wanted))
        rest.append(_State(s.key, [lit_subst(l, sub) for l in s.lits[1:]],
                           term_subst(s.result, sub), s.is_default))
    return canon, rest


def _walk(group: list[_State], prefix: list[Literal], bound: set[str],
          trace: list[str], complete: bool, fresh: _Fresh, argvar: str,
          out: list[tuple[float, Clause]], depth: int):
    indent = "  " * depth
    done = [s for s in group if not s.lits]
    if done:
        if len(group) > 1:
            raise RefinementError(
                "overlapping clauses: a complete clause coexists with "
                "further refinements")
        s = done[0]
        for v in term_vars(s.result):
            if v not in bound:
                raise RefinementError(f"unbound variable {v!r} in result")
        trace.append(f"{indent}complete clause -> {term_str(s.result)}")
        out.append((s.key, Clause(Var(argvar), tuple(prefix), s.result)))
        return

    firsts = [s.lits[0] for s in group]
    keys = {_lit_key(l) for l in firsts}
    for lit in firsts:
        for v in lit_used_vars(lit):
            if v not in bound:
                raise RefinementError(
                    f"unbound variable {v!r} in literal {lit_str(lit)}")

    # Rule 1: a common function-application literal is consumed by all.
    if len(keys) == 1 and isinstance(firsts[0], AppEq):
        for s in group:
            if s.lits[0].out in bound:
                raise RefinementError(
                    f"stale variable reuse: {s.lits[0].out!r} already bound")
        canon, rest = _canon_binders(group, bound, fresh)
        trace.append(f"{indent}introduce {lit_str(canon)}")
        _walk(rest, prefix + [canon], bound | set(lit_binders(canon)),
              trace, complete, fresh, argvar, out, depth)
        return

    kinds = {k[0] for k in keys}

    # Rules 2/3: zero/successor or zero/pair split on one variable.
    if kinds <= {"zero", "succ", "pair"}:
        subj = {k[1] for k in keys}
        if len(subj) != 1:
            raise RefinementError(
                f"clauses split on different variables: {sorted(subj)}")
        v = subj.pop()
        if "succ" in kinds and "pair" in kinds:
            raise RefinementError(f"mixed successor/pair split on {v!r}")
        other = "succ" if "succ" in kinds else "pair"
        rule = 2 if other == "succ" else 3
        zeros = [s for s in group if isinstance(s.lits[0], VarZero)]
        nonz = [s for s in group if not isinstance(s.lits[0], VarZero)]
        if not zeros:
            if not complete:
                raise RefinementError(f"non-exhaustive: missing case {v} = 0")
            zeros = [_State(max(s.key for s in group) + 0.25,
                            [VarZero(v)], Zero(), True)]
        if not nonz:
            if not complete:
                raise RefinementError(
                    f"non-exhaustive: missing non-zero case for {v}")
            lit = (VarSucc(v, fresh("w")) if other == "succ"
                   else VarPair(v, fresh("w"), fresh("w")))
            nonz = [_State(max(s.key for s in group) + 0.25,
                           [lit], Zero(), True)]
        trace.append(f"{indent}rule {rule} split on {v}: "
                     f"0 | {'S(w)' if other == 'succ' else '(w1,w2)'}")
        _walk([_State(s.key, s.lits[1:], s.result, s.is_default)
               for s in zeros],
              prefix + [VarZero(v)], bound, trace, complete, fresh,
              argvar, out, depth + 1)
        canon, rest = _canon_binders(nonz, bound, fresh)
        _walk(rest, prefix + [canon], bound | set(lit_binders(canon)),
              trace, complete, fresh, argvar, out, depth + 1)
        return

    # Rule 4: relation or oracle-membership split.
    if kinds <= {"rel"} or kinds <= {"mem"}:
        bodies = {k[:-1] for k in keys}
        if len(bodies) != 1:
            raise RefinementError(
                "clauses split on different relations: "
                + " vs ".join(sorted(lit_str(l) for l in firsts)))
        pos = [s for s in group if not s.lits[0].negated]
        neg = [s for s in group if s.lits[0].negated]
        base = replace(firsts[0], negated=False)
        if not pos:
            if not complete:
                raise RefinementError(
                    f"non-exhaustive: missing case {lit_str(base)}")
            pos = [_State(max(s.key for s in group) + 0.25,
                          [base], Zero(), True)]
        if not neg:
            if not complete:
                raise RefinementError(
                    "non-exhaustive: missing case "
                    f"{lit_str(replace(base, negated=True))}")
            neg = [_State(max(s.key for s in group) + 0.25,
                          [replace(base, negated=True)], Zero(), True)]
        trace.append(f"{indent}rule 4 split on {lit_str(base)}")
        for side in (pos, neg):
            _walk([_State(s.key, s.lits[1:], s.result, s.is_default)
                   for s in side],
                  prefix + [side[0].lits[0]], bound, trace, complete,
                  fresh, argvar, out, depth + 1)
        return

    raise RefinementError(
        "clauses are not a refinement: first literals "
        + " vs ".join(sorted(lit_str(l) for l in firsts)))


def _run_walk(d: ClausalDef, complete: bool):
    argvar, clauses = _normalize(d)
    taken = {argvar}
    for c in clauses:
        taken |= _clause_all_vars(c)
    fresh = _Fresh(taken)
    states = [_State(float(i), list(c.literals), c.result)
              for i, c in enumerate(clauses)]
    trace: list[str] = [f"argument variable {argvar}"]
    out: list[tuple[float, Clause]] = []
    _walk(states, [], {argvar}, trace, complete, fresh, argvar, out, 0)
    out.sort(key=lambda kv: kv[0])
    return trace, argvar, [c for _, c in out]


def check_refinement(d: ClausalDef) -> list[str]:
    """Verify the clause set is a refinement tree; return the trace.

    The trace is a human-readable replay of the refinement steps proving
    the antecedents pairwise disjoint and exhaustive.  Raises
    RefinementError otherwise."""
    trace, _, _ = _run_walk(d, complete=False)
    return trace


def complete_to_strict(d: ClausalDef) -> ClausalDef:
    """Normalize to strict form: plain-variable heads, unnested
    applications, and default clauses (yielding 0) making the antecedents
    exhaustive and disjoint."""
    _, _, strict = _run_walk(d, complete=True)
    kind = _classify_kind(d.name, strict)
    return ClausalDef(d.name, tuple(strict), kind,
                      measure=d.measure, parameterized=d.parameterized)


# --- Restrictions on recursive definitions ----------------------------------


@dataclass(frozen=True)
class RestrictionReport:
    ok: bool
    dynamic_measure: bool
    parameterized: bool
    notes: tuple[str, ...] = ()


def check_recursive_restrictions(d: ClausalDef) -> RestrictionReport:
    """Check identity-measure and parameterization restrictions."""
    if d.kind != "recursive":
        raise RestrictionError(f"{d.name} is not recursive")
    if d.measure != "identity":
        raise RestrictionError("only the identity measure is supported")
    sd = complete_to_strict(d)
    argvar = sd.clauses[0].pattern.name
    notes = []
    dynamic = False
    calls_helpers = any(
        isinstance(l, AppEq) and l.fname != d.name
        for c in sd.clauses for l in c.literals)
    param_ok = True
    param_var = None
    for c in sd.clauses:
        below = set()      # variables provably strictly below the argument
        weak = {argvar}    # variables weakly below (<=) the argument
        for lit in c.literals:
            if isinstance(lit, VarSucc):
                if lit.v in weak or lit.v in below:
                    below.add(lit.w)
            elif isinstance(lit, VarPair):
                if lit.v in weak or lit.v in below:
                    below.update((lit.w1, lit.w2))
                    if lit.v == argvar and param_var is None:
                        param_var = lit.w2
            elif isinstance(lit, AppEq) and lit.fname == d.name:
                t = lit.arg
                statically_ok = isinstance(t, Var) and t.name in below
                if not statically_ok:
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
                param_ok = False
                notes.append(f"clause of {d.name} calls functions but its "
                             "argument is not split as (v, p)")
            for l in apps:
                p = first_pair.w2 if first_pair else None
                # the parameter must be the rightmost leaf of the call's
                # argument tuple, shipped unchanged
                t = l.arg
                while isinstance(t, TPair):
                    t = t.right
                ok = isinstance(t, Var) and t.name == p
                if not ok:
                    param_ok = False
                    notes.append(
                        f"call {l.fname}({term_str(t)}) does not ship the "
                        f"parameter {p!r} unchanged")
    if calls_helpers and not param_ok:
        raise RestrictionError("; ".join(notes))
    return RestrictionReport(True, dynamic, calls_helpers and param_ok,
                             tuple(notes))


# --- Direct interpretation ---------------------------------------------------


def _build_env(defs) -> dict[str, ClausalDef]:
    env = {}
    for d in defs:
        env[d.name] = complete_to_strict(d)
    return env


def eval_clausal(defs, fname: str, x: int, oracle=frozenset(),
                 budget: Budget | None = None,
                 meter: Meter | None = None) -> int:
    """Interpret a CL program: evaluate fname at x.

    Recursive self-calls are dynamically checked against the identity
    measure (argument strictly decreasing)."""
    if budget is None:
        budget = Budget()
    if meter is None:
        meter = Meter()
    env = _build_env(defs)
    if fname not in env:
        raise ClausalEvalError(f"undefined function {fname!r}")

    def tick():
        meter.steps += 1
        if meter.steps > budget.max_steps:
            raise BudgetExceeded("steps", meter)

    def ev_term(t: QuasiTerm, b: dict[str, int], caller: str,
                arg: int, depth: int) -> int:
        if isinstance(t, Zero):
            return 0
        if isinstance(t, Var):
            if t.name not in b:
                raise ClausalEvalError(f"unbound variable {t.name!r}")
            return b[t.name]
        if isinstance(t, Succ):
            return ev_term(t.arg, b, caller, arg, depth) + 1
        if isinstance(t, TPair):
            return pair(ev_term(t.left, b, caller, arg, depth),
                        ev_term(t.right, b, caller, arg, depth))
        if isinstance(t, TAdd):
            return (ev_term(t.left, b, caller, arg, depth)
                    + ev_term(t.right, b, caller, arg, depth))
        if isinstance(t, TMul):
            return (ev_term(t.left, b, caller, arg, depth)
                    * ev_term(t.right, b, caller, arg, depth))
        v = ev_term(t.arg, b, caller, arg, depth)
        if t.fname == caller and v >= arg:
            raise MeasureViolation(
                f"{caller}({v}) called from {caller}({arg})")
        return call(t.fname, v, depth + 1)

    def call(f: str, x: int, depth: int) -> int:
        tick()
        if depth > meter.max_depth:
            meter.max_depth = depth
        if x.bit_length() > meter.peak_bits:
            meter.peak_bits = x.bit_length()
            if x.bit_length() > budget.max_bits:
                raise BudgetExceeded("bits", meter)
        d = env[f]
        argvar = d.clauses[0].pattern.name
        for c in d.clauses:
            b = {argvar: x}
            if _try_clause(c, b, f, x, depth):
                return ev_term(c.result, b, f, x, depth)
        raise ClausalEvalError(
            f"no applicable clause in {f} at {x} (internal error)")

    def _try_clause(c: Clause, b: dict[str, int], f: str, x: int,
                    depth: int) -> bool:
        for lit in c.literals:
            tick()
            if isinstance(lit, VarZero):
                if b[lit.v] != 0:
                    return False
            elif isinstance(lit, VarSucc):
                if b[lit.v] == 0:
                    return False
                b[lit.w] = b[lit.v] - 1
            elif isinstance(lit, VarPair):
                if b[lit.v] == 0:
                    return False
                b[lit.w1], b[lit.w2] = head(b[lit.v]), tail(b[lit.v])
            elif isinstance(lit, AppEq):
                v = ev_term(lit.arg, b, f, x, depth)
                if lit.fname == f and v >= x:
                    raise MeasureViolation(
                        f"{f}({v}) called from {f}({x})")
                b[lit.out] = call(lit.fname, v, depth + 1)
            elif isinstance(lit, Rel):
                l = ev_term(lit.left, b, f, x, depth)
                r = ev_term(lit.right, b, f, x, depth)
                holds = l == r if lit.rel == "=" else l < r
                if holds == lit.negated:
                    return False
            else:
                holds = ev_term(lit.term, b, f, x, depth) in oracle
                if holds == lit.negated:
                    return False
        return True

    return call(fname, x, 0)
