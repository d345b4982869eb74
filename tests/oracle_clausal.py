"""The recursive quasi-term walkers, kept as differential oracles.

These are the walkers funalg.clausal and funalg.compiler shipped before
each became a rule for derivation.fold: one isinstance ladder per walker,
recursing on the term.  They raise RecursionError on deep terms, so the
tests compare them with the package on shallow ones; see
test_clausal_walkers.py.  The interpreter's term evaluation is kept
without its App branch, since strict-form terms hold no applications.

eval_clausal is the interpreter as it was before its calls became frames
on an explicit stack: one Python call per clausal call, so it raises
RecursionError on recursions about a thousand calls deep.  Its meter
follows the interpreter's as it is now: peak_bits counts every value a
term takes as well as every call argument, and a value wider than the
budget raises even when the meter passed in is already past it.

RecursiveParser is the CL parser as it was before terms were parsed on an
explicit stack: one Python call per nesting level of a term or of `!`.

run_walk is the refinement walk as it was before it ran on an explicit
work stack: one Python call per consumed application literal and per
split, with first literals keyed by their dataclass hash, which recurses
on deep terms.
"""

from __future__ import annotations

from funalg import clausal as cl
from funalg.clausal import (App, AppEq, Clause, Literal, OracleMem,
                            QuasiTerm, RefinementError, Rel, Succ, TAdd,
                            TMul, TPair, Var, VarPair, VarSucc, VarZero, Zero)
from funalg.codec import head, pair, tail
from funalg.compiler import Z_, UnboundVariableError
from funalg.derivation import ADD, MUL, P, S, comp
from funalg.evaluator import Budget, BudgetExceeded, Meter


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


def validate_pattern(p: QuasiTerm):
    """An invalid node is reported first, then the least variable that
    occurs twice."""
    names = _pattern_vars(p)
    repeated = {v for v in names if names.count(v) > 1}
    if repeated:
        raise RefinementError(f"repeated pattern variable {min(repeated)!r}")


def _pattern_vars(p: QuasiTerm) -> list[str]:
    """The variable occurrences of pattern p, left to right."""
    if isinstance(p, Zero):
        return []
    if isinstance(p, Var):
        return [p.name]
    if isinstance(p, Succ):
        return _pattern_vars(p.arg)
    if isinstance(p, TPair):
        return _pattern_vars(p.left) + _pattern_vars(p.right)
    raise RefinementError(f"invalid pattern {term_str(p)}")


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


def clause_all_vars(c: Clause) -> set[str]:
    vs = set(term_vars(c.pattern)) | set(term_vars(c.result))
    for lit in c.literals:
        vs |= lit_used_vars(lit)
        vs |= set(lit_binders(lit))
    return vs


def flatten_pattern(c: Clause, argvar: str) -> Clause:
    """Move a head pattern into antecedent literals over a plain variable."""
    validate_pattern(c.pattern)
    if isinstance(c.pattern, Var):
        if c.pattern.name == argvar:
            return c
        sub = {c.pattern.name: argvar}
        return Clause(Var(argvar),
                      tuple(lit_subst(l, sub) for l in c.literals),
                      term_subst(c.result, sub))
    fresh = _Fresh(clause_all_vars(c) | {argvar})
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


def unnest_clause(c: Clause) -> Clause:
    """Replace nested applications by AppEq literals, innermost first."""
    fresh = _Fresh(clause_all_vars(c))
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


def ev_term(t: QuasiTerm, b: dict[str, int], seen=lambda v: None) -> int:
    """The interpreter's value of an application-free term; seen(v) is
    called on each value, operands before the value they make."""
    if isinstance(t, Zero):
        v = 0
    elif isinstance(t, Var):
        if t.name not in b:
            raise cl.ClausalEvalError(f"unbound variable {t.name!r}")
        v = b[t.name]
    elif isinstance(t, Succ):
        v = ev_term(t.arg, b, seen) + 1
    elif isinstance(t, TPair):
        v = pair(ev_term(t.left, b, seen), ev_term(t.right, b, seen))
    elif isinstance(t, TAdd):
        v = ev_term(t.left, b, seen) + ev_term(t.right, b, seen)
    else:
        v = ev_term(t.left, b, seen) * ev_term(t.right, b, seen)
    seen(v)
    return v


def term_d(t: QuasiTerm, var, env):
    """The derivation of a quasi-term; var(name) gives each variable's."""
    if isinstance(t, Zero):
        return Z_
    if isinstance(t, Var):
        return var(t.name)
    if isinstance(t, Succ):
        return comp(S, term_d(t.arg, var, env))
    if isinstance(t, TPair):
        return P(term_d(t.left, var, env), term_d(t.right, var, env))
    if isinstance(t, TAdd):
        return comp(ADD, P(term_d(t.left, var, env),
                           term_d(t.right, var, env)))
    if isinstance(t, TMul):
        return comp(MUL, P(term_d(t.left, var, env),
                           term_d(t.right, var, env)))
    if isinstance(t, App):
        if t.fname not in env:
            raise UnboundVariableError(
                f"no derivation for function {t.fname!r}")
        return comp(env[t.fname], term_d(t.arg, var, env))
    raise TypeError(t)


def eval_clausal(defs, fname: str, x: int, oracle=frozenset(),
                 budget: Budget | None = None,
                 meter: Meter | None = None) -> int:
    """The recursive interpreter: values, errors and Meter fields are those
    of funalg.clausal.eval_clausal wherever this one does not recurse too
    deep."""
    if not isinstance(x, int):
        raise TypeError(f"expected an int argument, got {type(x).__name__}")
    if x < 0:
        raise ValueError(f"argument must be a natural number, got {x}")
    if budget is None:
        budget = Budget()
    if meter is None:
        meter = Meter()
    env = {d.name: cl.complete_to_strict(d) for d in defs}
    if fname not in env:
        raise cl.ClausalEvalError(f"undefined function {fname!r}")

    def tick():
        meter.steps += 1
        if meter.steps > budget.max_steps:
            raise BudgetExceeded("steps", meter)

    def width(v: int):
        if v.bit_length() > min(meter.peak_bits, budget.max_bits):
            meter.peak_bits = max(meter.peak_bits, v.bit_length())
            if v.bit_length() > budget.max_bits:
                raise BudgetExceeded("bits", meter)

    def ev(t: QuasiTerm, b: dict[str, int]) -> int:
        return ev_term(t, b, width)

    def call(f: str, x: int, depth: int) -> int:
        tick()
        if depth > meter.max_depth:
            meter.max_depth = depth
        width(x)
        d = env.get(f)
        if d is None:
            raise cl.ClausalEvalError(f"undefined function {f!r}")
        argvar = d.clauses[0].pattern.name
        for c in d.clauses:
            b = {argvar: x}
            for lit in c.literals:  # the first literal that fails skips c
                tick()
                if isinstance(lit, VarZero):
                    if b[lit.v] != 0:
                        break
                elif isinstance(lit, VarSucc):
                    if b[lit.v] == 0:
                        break
                    b[lit.w] = b[lit.v] - 1
                elif isinstance(lit, VarPair):
                    if b[lit.v] == 0:
                        break
                    b[lit.w1], b[lit.w2] = head(b[lit.v]), tail(b[lit.v])
                elif isinstance(lit, AppEq):
                    v = ev(lit.arg, b)
                    if lit.fname == f and v >= x:
                        raise cl.MeasureViolation(
                            f"{f}({v}) called from {f}({x})")
                    b[lit.out] = call(lit.fname, v, depth + 1)
                elif isinstance(lit, Rel):
                    l = ev(lit.left, b)
                    r = ev(lit.right, b)
                    if (l == r if lit.rel == "=" else l < r) == lit.negated:
                        break
                elif (ev(lit.term, b) in oracle) == lit.negated:
                    break
            else:
                return ev(c.result, b)
        raise cl.ClausalEvalError(
            f"no applicable clause in {f} at {x} (internal error)")

    return call(fname, x, 0)


class RecursiveParser(cl._Parser):
    """parse_term and parse_lit by recursive descent."""

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
            if isinstance(inner, (Rel, OracleMem)):
                return type(inner)(*inner._fields()[:-1], not inner.negated)
            self.err("only relations and oracle atoms can be negated")
        t1 = self.parse_term()
        nxt = self.peek()
        if nxt[0] == "ident" and nxt[1] == "in":
            self.next()
            x = self.next()
            if x[1] != "X":
                raise cl.CLSyntaxError("membership is only in the oracle X",
                                       x[2], x[3])
            return OracleMem(t1)
        if self.at_sym("=") or self.at_sym("<"):
            rel = self.next()[1]
            t2 = self.parse_term()
            return Rel(t1, rel, t2)
        self.err("expected relation in literal")


# --- the recursive refinement walk -------------------------------------------


def lit_key(lit: Literal) -> tuple:
    """Identity of a first literal, ignoring the names it binds: its tag,
    then its other fields in order."""
    _, _, binders, tag = cl._LIT_SHAPE[type(lit)]
    return (tag, *(v for f, v in zip(lit.__slots__, lit._fields())
                   if f not in binders))


def canon_binders(side: list[cl._State], bound: set[str],
                   fresh: cl._Fresh) -> tuple[Literal, list[cl._State]]:
    """Give the binder literals heading a split side common binder names."""
    names = {cl.lit_binders(s.lits[0]) for s in side}
    if len(names) == 1:
        wanted = names.pop()
        for b in wanted:
            if b in bound:
                raise RefinementError(
                    f"stale variable reuse: {b!r} already bound")
    else:
        wanted = tuple(fresh("w") for _ in cl.lit_binders(side[0].lits[0]))
    canon = cl.lit_subst(side[0].lits[0],
                      dict(zip(cl.lit_binders(side[0].lits[0]), wanted)))
    rest = []
    for s in side:
        own = cl.lit_binders(s.lits[0])
        sub = dict(zip(own, wanted))
        rest.append(cl._State(s.key,
                              [cl.lit_subst(l, sub) for l in s.lits[1:]],
                              cl.term_subst(s.result, sub)))
    return canon, rest


def walk(group: list[cl._State], prefix: list[Literal], bound: set[str],
          trace: list[str], complete: bool, fresh: cl._Fresh, argvar: str,
          out: list[tuple[float, Clause]], depth: int):
    indent = "  " * depth
    done = [s for s in group if not s.lits]
    if done:
        if len(group) > 1:
            raise RefinementError(
                "overlapping clauses: a complete clause coexists with "
                "further refinements")
        s = done[0]
        if not cl.term_vars(s.result) <= bound:
            v = cl._first_unbound(cl._var_order(s.result), bound)
            raise RefinementError(f"unbound variable {v!r} in result")
        if not complete:
            trace.append(f"{indent}complete clause -> {cl.term_str(s.result)}")
        out.append((s.key, Clause(Var(argvar), tuple(prefix), s.result)))
        return

    firsts = [s.lits[0] for s in group]
    keys = {lit_key(l) for l in firsts}
    for lit in firsts:
        if not cl.lit_used_vars(lit) <= bound:
            # the literal's own order: the variables it reads, then its terms'
            used = [getattr(lit, f) for f in cl._LIT_SHAPE[type(lit)][1]]
            v = cl._first_unbound(used + [v for t in cl._lit_terms(lit)
                                       for v in cl._var_order(t)], bound)
            raise RefinementError(
                f"unbound variable {v!r} in literal {cl.lit_str(lit)}")

    # Rule 1: a common function-application literal is consumed by all.
    if len(keys) == 1 and isinstance(firsts[0], AppEq):
        for s in group:
            if s.lits[0].out in bound:
                raise RefinementError(
                    f"stale variable reuse: {s.lits[0].out!r} already bound")
        canon, rest = canon_binders(group, bound, fresh)
        if not complete:
            trace.append(f"{indent}introduce {cl.lit_str(canon)}")
        walk(rest, prefix + [canon], bound | set(cl.lit_binders(canon)),
              trace, complete, fresh, argvar, out, depth)
        return

    kinds = {k[0] for k in keys}

    def or_default(side: list[cl._State], make_lit,
                   missing: str) -> list[cl._State]:
        # an empty side of a split is non-exhaustive; completion gives it
        # one clause, on make_lit(), answering 0 after the group's clauses
        if side:
            return side
        if not complete:
            raise RefinementError(f"non-exhaustive: missing {missing}")
        return [cl._State(max(s.key for s in group) + 0.25, [make_lit()],
                       Zero())]

    def walk_past_first(side: list[cl._State]):
        walk([cl._State(s.key, s.lits[1:], s.result) for s in side],
              prefix + [side[0].lits[0]], bound, trace, complete, fresh,
              argvar, out, depth + 1)

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
            [s for s in group if isinstance(s.lits[0], VarZero)],
            lambda: VarZero(v), f"case {v} = 0")
        nonz = or_default(
            [s for s in group if not isinstance(s.lits[0], VarZero)],
            lambda: (VarSucc(v, fresh("w")) if succ
                     else VarPair(v, fresh("w"), fresh("w"))),
            f"non-zero case for {v}")
        if not complete:
            trace.append(f"{indent}rule {2 if succ else 3} split on {v}: "
                         f"0 | {'S(w)' if succ else '(w1,w2)'}")
        walk_past_first(zeros)
        canon, rest = canon_binders(nonz, bound, fresh)
        walk(rest, prefix + [canon], bound | set(cl.lit_binders(canon)),
              trace, complete, fresh, argvar, out, depth + 1)
        return

    # Rule 4: relation or oracle-membership split.
    if kinds <= {"rel"} or kinds <= {"mem"}:
        bodies = {k[:-1] for k in keys}
        if len(bodies) != 1:
            raise RefinementError(
                "clauses split on different relations: "
                + " vs ".join(sorted(cl.lit_str(l) for l in firsts)))
        kind, fields = type(firsts[0]), firsts[0]._fields()[:-1]
        base, negd = kind(*fields, False), kind(*fields, True)
        pos = or_default([s for s in group if not s.lits[0].negated],
                         lambda: base, f"case {cl.lit_str(base)}")
        neg = or_default([s for s in group if s.lits[0].negated],
                         lambda: negd, f"case {cl.lit_str(negd)}")
        if not complete:
            trace.append(f"{indent}rule 4 split on {cl.lit_str(base)}")
        walk_past_first(pos)
        walk_past_first(neg)
        return

    raise RefinementError(
        "clauses are not a refinement: first literals "
        + " vs ".join(sorted(cl.lit_str(l) for l in firsts)))


def run_walk(d: cl.ClausalDef, complete: bool):
    # the trace replays a check; completion keeps only its first line
    argvar, clauses = cl._normalize(d)
    fresh = cl._Fresh(
        lambda: {argvar}.union(*map(cl._clause_all_vars, clauses)))
    states = [cl._State(float(i), list(c.literals), c.result)
              for i, c in enumerate(clauses)]
    trace: list[str] = [f"argument variable {argvar}"]
    out: list[tuple[float, Clause]] = []
    walk(states, [], {argvar}, trace, complete, fresh, argvar, out, 0)
    out.sort(key=lambda kv: kv[0])
    return trace, [c for _, c in out]
